"""A mutant net: each catalogued fault must make a suite report FAIL.

A mutant (DeMillo, Lipton & Sayward, IEEE Computer 11(4), 1978) is a
text substitution in one function's source, bound wherever the original
is. 20 trials of each suite that can see it must give a failing report,
not an exception. `PYTHONPATH=src python tests/test_mutants.py` prints
the kill matrix, equivalent mutants included, as Markdown.
"""

import __future__
import dataclasses
import inspect
import sys
import textwrap

import pytest

from qbayes import classical as cl
from qbayes import cli, linalg, verify
from qbayes import correspond as co
from qbayes import quantum as qu

TRIALS, SEED, DIMS = 20, 2024, (3, 4)
CB, SE, QB, QD = "classical-bayes", "semiexp", "quantum-bayes", "quantum-duality"
PE, INF, WIT, EMB = "pair-extract", "inference", "witnesses", "embedding"
QC = qu.QChannel

# (mutant, suites that must FAIL, function, old text, new text[, function, ...])
CATALOGUE = [
    ("pair-no-conj", [PE], co.pair, "np.conj(", "("),
    ("cup-no-prior-T", [PE], co.pair_via_cup, "sigma.mat.T", "sigma.mat"),
    ("cup-final-transpose", [PE], co.pair_via_cup, "(1, 3, 0, 2)", "(0, 3, 1, 2)"),
    ("project-no-transpose", [PE, INF], co.project, ".transpose()", ""),
    ("extract-no-root-T", [PE, INF], co.extract, "inv_root.T @", "inv_root @"),
    ("extract-no-conj", [PE, INF], co.extract, "np.conjugate(left", "np.positive(left"),
    ("pair-and-extract-no-conj", [PE], co.pair, "np.conj(", "(",
     co.extract, "np.conjugate(left", "np.positive(left"),
    ("crossover-second-no-T", [INF], co.crossover_second, "p.mat.T", "p.mat"),
    ("crossover-first-no-T", [INF], co.crossover_first, "q.mat.T", "q.mat"),
    ("forward-no-p-transpose", [INF], co.inference_forward, "p.transpose()", "p"),
    ("backward-no-transpose", [INF], co.inference_backward, ").transpose()", ")"),
    ("lower-as-upper", [QB, WIT], qu.condition_lower,
     "v = _born(", "return condition_upper(sigma, p)\n    v = _born("),
    ("upper-as-lower", [QB, INF], qu.condition_upper,
     "v = _born(", "return condition_lower(sigma, p)\n    v = _born("),
    ("lower-root-of-state", [QB], qu.condition_lower, "_root_of(p)", "_root_of(sigma)"),
    ("upper-root-of-effect", [QB, INF], qu.condition_upper, "of(sigma)", "of(p)"),
    ("andthen-root-of-q", [QB, WIT, EMB], qu.andthen, "_root_of(p)", "_root_of(q)"),
    ("lower-unnormalised", [QB], qu.condition_lower, " / v,", ","),
    ("validity-reads-p-T", [QB, QD], qu._trace_of_product, "p.mat.T", "p.mat"),
    ("unital-flag-inverted", [QD, PE],
     linalg._checked_channel, "<= NORM_TOL)", "> NORM_TOL)"),
    ("shortfall-sign", [WIT, SE],
     verify._drive, "WITNESS_THRESHOLD - found", "found - WITNESS_THRESHOLD"),
    ("fixed-witness-target", [WIT], verify._witnesses, "(dev - 1.0)", "(dev - 0.5)"),
    ("push-no-result-T", [QD, PE, INF], QC.push_operator, "(m, m).T", "(m, m)"),
    ("push-no-state-T", [QD, PE, INF], QC.push_operator, "mat.T.", "mat."),
    ("pull-block-axes", [QD, INF],
     QC.pull, "self.blocks.reshape", "self.blocks.transpose(1, 0, 2, 3).reshape"),
    ("kraus-no-conj", [QD, PE], QC.from_kraus, "stack.conj(), stack", "stack, stack"),
    ("conjunction-p-p", [CB, EMB], cl.conjunction, "* q.values", "* p.values"),
    ("pred-tensor-swapped", [CB], cl.FuzzyPred.tensor,
     "(self.values, other.values)", "(other.values, self.values)"),
    ("pair-uniform-prior", [EMB],
     cl.pair, "omega.probs[:, None] * c.matrix", "c.matrix / c.matrix.shape[0]"),
    ("mixture-unweighted", [SE], cl.mixture, "wi * d.probs", "d.probs / w.size"),
    ("stoch-tensor-swapped", [SE], cl.StochChannel.tensor,
     "(self.matrix, other.matrix)", "(other.matrix, self.matrix)"),
]
# (mutant, suites it should FAIL, the ROADMAP item that will kill it, edits)
SURVIVORS = [
    ("extract-drift-3e-11", [PE, INF], "11, per-trial error bounds",
     co.extract, "QChannel(blocks,", "QChannel(blocks * (1 + 3e-11),"),
    ("inv-sqrt-cutoff-1e6-stricter", [PE, INF], "12, justified refusals",
     linalg.psd_inv_sqrt, "lo <= INV_CUTOFF", "lo <= 1e6 * INV_CUTOFF"),
]
# (mutant, why no suite equation can see it, edits)
EQUIVALENT = [
    ("forward-pair-transposes-p", "both sides of forward-inference read p^T for p, "
     "embedding's effects are diagonal; test_kernels.py kills it",
     co.crossover_second, "p.mat.T", "p.mat",
     co.inference_forward, "p.transpose()", "p"),
    ("psd-sqrt-unsymmetrised", "the eigh root is Hermitian to rounding already",
     linalg.psd_sqrt, "return _conj_mean(root, root.T)", "return root"),
    ("abstract-skewed-prior", "extraction divides the prior out, and the eta search "
     "pairs with Dist.uniform itself; test_semiexp.py's definitions kill it",
     cl.abstract, "Dist.uniform(x_space)", "Dist(x_space, np.arange(1.0, len(xs) "
     "+ 1) * 2 / (len(xs) * (len(xs) + 1)))"),
    ("nan-not-sticky", "no suite yields a NaN unmutated; test_verify.py's fake "
     "suites kill it", verify._drive, " or value != value", ""),
]


def _edits(flat):
    return [flat[i : i + 3] for i in range(0, len(flat), 3)]


def apply(mp, fn, old, new):
    """Bind fn's source with old replaced by new wherever fn is bound:
    in every module that holds it (correspond imports psd_inv_sqrt,
    condition_upper, _root_of, asrt and _born by name), on its class,
    and in the verify.SUITES records that hold a suite's trial."""
    fn = getattr(fn, "__func__", fn)
    module = sys.modules[fn.__module__]
    *owner, name = fn.__qualname__.split(".")
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, (fn.__qualname__, old)
    scope, flags = {}, __future__.annotations.compiler_flag
    exec(compile(src.replace(old, new), module.__file__, "exec", flags),
         vars(module), scope)
    if owner:
        mp.setattr(getattr(module, owner[0]), name, scope[name])
        return
    for mod in list(sys.modules.values()):
        if getattr(mod, "__dict__", {}).get(name) is fn:
            mp.setattr(mod, name, scope[name])
    for key, spec in verify.SUITES.items():
        held = {f: scope[name] for f, value in vars(spec).items() if value is fn}
        if held:
            mp.setitem(verify.SUITES, key, dataclasses.replace(spec, **held))


def _report(suite):
    return verify.run_suite(suite, trials=TRIALS, seed=SEED, dims=DIMS)


NET = [pytest.param(s, _edits(e), id=n) for n, s, *e in CATALOGUE] + [
    pytest.param(s, _edits(e), id=n, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"survives until ROADMAP item {r}"))
    for n, s, r, *e in SURVIVORS
]


@pytest.mark.parametrize("suites, edits", NET)
def test_mutant_fails_its_suites(monkeypatch, suites, edits):
    for edit in edits:
        apply(monkeypatch, *edit)
    for suite in suites:
        assert not _report(suite).all_pass, suite


def test_a_crashing_mutant_gives_a_report_not_a_traceback(monkeypatch, capsys):
    apply(monkeypatch, co.project, ".transpose()", "")
    argv = ["verify", "--suite", "inference", "--trials", "20", "--dims", "3,4"]
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert "unexpected errors: NotPositiveError×20\nFAIL: forward-inference" in out


def kill_matrix() -> str:
    """Each mutant's failing equations and unexpected errors, per suite."""
    suites = sorted(verify.SUITES)
    rows = ["| mutant | " + " | ".join(suites) + " |", "|---" * (len(suites) + 1) + "|"]
    named = [(n, e) for n, _, *e in CATALOGUE] + [(n, e) for n, _, _, *e in SURVIVORS]
    named += [(f"{n} (equivalent)", e) for n, _, *e in EQUIVALENT]
    for name, flat in named:
        cells = []
        with pytest.MonkeyPatch.context() as mp:
            for edit in _edits(flat):
                apply(mp, *edit)
            for suite in suites:
                report = _report(suite)
                failed = [eq.name for eq in report.equations if not eq.passed]
                failed += [f"{k}×{n}" for k, n in report.unexpected_errors.items()]
                cells.append(", ".join(failed) or "·")
        rows.append(f"| {name} | " + " | ".join(cells) + " |")
    return "\n".join(rows)


if __name__ == "__main__":
    print(kill_matrix())
    for name, why, *_ in EQUIVALENT:
        print(f"- {name}: {why}")
