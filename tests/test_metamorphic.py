"""Metamorphic relations of the command line (ROADMAP item 17).

Renumbering a system's states and reordering its lines must leave every
output alone, and a damaged input file must end in a verdict or a one-line
error, never in a traceback or an unexpected exit code.  Two relations tie
verdicts of different subcommands together: ``preserve`` under the identity
map agrees with ``check rl``, and ``check sat`` holds exactly when
``check rl`` and ``check rs`` both do.  Two more check what a command prints:
every lasso that ``check sat`` or ``check rs`` prints is a computation of the
system that ``eval`` finds false, and ``synthesize`` succeeds exactly when
``check rl`` holds, with an implementation that passes ``verify-impl`` and
``machine-closed`` and satisfies the formula outright.
"""

import json
from pathlib import Path

import gen
import oracles
from faircheck.automata import BuchiAutomaton, LassoWord
from faircheck.cli import run
from faircheck.formats import (
    format_automaton,
    format_homomorphism,
    parse_automaton,
    parse_homomorphism,
)
from faircheck.pltl import format_formula

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIG2 = (FIXTURES / "fig2.aut").read_text()
FIG3 = (FIXTURES / "fig3.aut").read_text()
HIDE = (FIXTURES / "hide.hom").read_text()


def commands(system, sub, hom, impl, formula, extended):
    """Every subcommand that reads a file, on these files and formulas."""
    for kind in ("rl", "rs", "sat"):
        yield ["check", kind, "--system", system, "--formula", formula]
    yield ["machine-closed", "--system", system, "--sub", sub]
    yield ["safety-class", "--system", system, "--formula", formula]
    yield ["abstract", "--system", system, "--hom", hom]
    yield ["wcc", "--system", system, "--hom", hom]
    yield ["preserve", "--system", system, "--hom", hom, "--formula", extended]
    yield ["xtd", "--system", system]
    yield ["xtd", "--system", system, "--hom", hom]
    yield ["synthesize", "--system", system, "--formula", formula]
    yield ["verify-impl", "--impl", impl, "--system", system, "--formula", formula]


def outcome(argv, capsys):
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def files(tmp_path):
    return [tmp_path / name for name in ("system.aut", "sub.aut", "map.hom", "impl.aut")]


def renumbered(text, rng):
    """The `.aut` text with every state renamed, the ``states:`` list
    permuted and the ``trans:`` lines, still after every other directive, in
    a random order; the text is rewritten line by line, not parsed."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    lines = [line for line in lines if not line[0].startswith("#")]
    states = next(line[1:] for line in lines if line[0] == "states:")
    name = dict(zip(states, (f"q{k}" for k in rng.sample(range(len(states)), len(states)))))
    heads, trans = [], []
    for key, *fields in lines:
        if key in ("states:", "initial:", "accepting:"):
            heads.append([key, *rng.sample([name[s] for s in fields], len(fields))])
        elif key == "trans:":
            src, letter, dst = fields
            trans.append([key, name[src], letter, name[dst]])
        else:
            heads.append([key, *fields])
    rng.shuffle(trans)
    return "".join(" ".join(line) + "\n" for line in heads + trans)


def without_digests(out):
    if not out.startswith("{"):
        return out
    report = json.loads(out)
    del report["inputs"], report["elapsed_ms"]
    return report


class TestRenumbering:
    def test_renamed_states_and_shuffled_lines_change_no_output(self, rng, tmp_path, capsys):
        # every verdict and every printed automaton depends on the system's
        # language only, so the second run differs in its input digests only;
        # a Buchi system is checked as it is, with no canonical form between
        # its numbering and the witness search
        cases = [(FIG2, HIDE), (FIG3, HIDE)]
        for i in range(10):
            alphabet = gen.letters(rng.randint(1, 3))
            if i % 2:
                a = gen.random_buchi(rng, alphabet, max_states=5)
            else:
                a = gen.random_fin(rng, alphabet, max_states=5, all_accepting=True)
            cases.append((format_automaton(a), format_homomorphism(gen.random_hom(rng, alphabet))))
        system, sub, hom, impl = files(tmp_path)
        for text, hom_text in cases:
            alphabet = parse_automaton(text).alphabet
            targets = parse_homomorphism(hom_text).target.symbols
            formula = format_formula(gen.random_pnf_formula(rng, alphabet.symbols, 2))
            extended = format_formula(gen.random_extended_formula(rng, targets, 2))
            system.write_text(text)
            sub.write_text(format_automaton(gen.random_buchi(rng, alphabet, max_states=4)))
            hom.write_text(hom_text)
            code, out, _ = outcome(["synthesize", "--system", str(system), "--formula", formula], capsys)
            impl.write_text(out if code == 0 else sub.read_text())
            argvs = list(commands(*map(str, (system, sub, hom, impl)), formula, extended))
            before = []
            for argv in argvs:
                code, out, err = outcome(argv, capsys)
                before.append((code, without_digests(out), err))
            system.write_text(renumbered(text, rng))
            for argv, expected in zip(argvs, before):
                code, out, err = outcome(argv, capsys)
                assert (code, without_digests(out), err) == expected, argv


def mutated(text, rng):
    """The text with one line deleted, duplicated or truncated, its lines
    shuffled, or two of its tokens swapped."""
    lines = text.splitlines()
    kind = rng.choice(["delete", "duplicate", "truncate", "shuffle", "swap"])
    i = rng.randrange(len(lines))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif kind == "truncate":
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    elif kind == "shuffle":
        rng.shuffle(lines)
    else:
        tokens = [line.split() for line in lines]
        places = [(i, j) for i, line in enumerate(tokens) for j in range(len(line))]
        (i, j), (k, m) = rng.sample(places, 2)
        tokens[i][j], tokens[k][m] = tokens[k][m], tokens[i][j]
        lines = [" ".join(line) for line in tokens]
    return "\n".join(lines) + "\n"


class TestMutatedInputs:
    RUNS = 240

    def test_damaged_files_end_in_a_verdict_or_one_error_line(self, rng, tmp_path, capsys):
        system, sub, hom, impl = files(tmp_path)
        system.write_text(FIG2)
        formula = "G (request -> F result)"
        code, out, _ = outcome(["synthesize", "--system", str(system), "--formula", formula], capsys)
        assert code == 0
        impl.write_text(out)
        argvs = list(commands(*map(str, (system, sub, hom, impl)), formula, "G F result"))
        for _ in range(self.RUNS):
            system.write_text(mutated(rng.choice([FIG2, FIG3]), rng))
            sub_text = rng.choice([FIG2, FIG3])
            sub.write_text(mutated(sub_text, rng) if rng.random() < 0.5 else sub_text)
            hom.write_text(mutated(HIDE, rng) if rng.random() < 0.5 else HIDE)
            argv = rng.choice(argvs)
            code, out, err = outcome(argv, capsys)
            assert code in (0, 1, 2), (argv, err)
            if code == 2:
                assert not out and err.startswith("error: ") and err.count("\n") == 1, err
            elif argv[0] == "synthesize" and code == 1:
                assert not out and err.startswith("synthesis precondition failed: ")
                assert err.count("\n") == 1, err
            elif argv[0] in ("abstract", "xtd", "synthesize"):
                assert code == 0 and not err
                parse_automaton(out)
            else:
                assert not err and isinstance(json.loads(out), dict)


def verdict(argv, capsys):
    code, out, err = outcome(argv, capsys)
    assert code in (0, 1) and not err, (argv, err)
    return json.loads(out)["verdict"]


def check(kind, system, formula, capsys):
    return verdict(["check", kind, "--system", str(system), "--formula", formula], capsys)["holds"]


class TestVerdictRelations:
    def test_preserve_under_the_identity_map_is_check_rl(self, rng, tmp_path, capsys):
        # the identity map hides nothing, so the abstraction is closed, no
        # hidden cycle exists and the concrete verdict is the abstract one;
        # both are rl on the system as long as it has no maximal words,
        # which the padding of the abstract side would keep and rl's limit
        # drops (README, "Command line": a finitary system is read in two
        # ways), so draws with a state without successors are skipped
        systems = [FIG2, FIG3]
        while len(systems) < 14:
            alphabet = gen.letters(rng.randint(1, 3))
            a = gen.random_fin(rng, alphabet, max_states=5, all_accepting=True)
            if {p for p, _, _ in a.transitions} == set(a.states):
                systems.append(format_automaton(a))
        system, _, hom, _ = files(tmp_path)
        seen = set()
        for text in systems:
            letters = parse_automaton(text).alphabet.symbols
            system.write_text(text)
            hom.write_text("".join(f"{c} -> {c}\n" for c in letters))
            for _ in range(3):
                formula = format_formula(gen.random_nf_formula(rng, letters, 2))
                rl = check("rl", system, formula, capsys)
                argv = ["preserve", "--system", str(system), "--hom", str(hom), "--formula", formula]
                report = verdict(argv, capsys)
                assert report["wcc_closed"] and report["equivalence_certified"], (text, formula)
                assert report["abstract_holds"] == rl, (text, formula)
                assert report["concrete_holds"] == rl, (text, formula)
                seen.add(rl)
        assert seen == {True, False}

    def test_sat_holds_exactly_when_rl_and_rs_hold(self, rng, tmp_path, capsys):
        # satisfaction is relative liveness and relative safety together;
        # the draws go on until each of rl and rs has failed alone
        system = files(tmp_path)[0]
        alone = set()
        for i in range(200):
            if i >= 40 and alone == {(True, False), (False, True)}:
                break
            alphabet = gen.letters(rng.randint(2, 3))
            if i % 2:
                a = gen.random_buchi(rng, alphabet, max_states=5)
            else:
                a = gen.random_fin(rng, alphabet, max_states=5, all_accepting=True)
            system.write_text(format_automaton(a))
            formula = format_formula(gen.random_formula(rng, alphabet.symbols, 3))
            rl, rs, sat = (check(kind, system, formula, capsys) for kind in ("rl", "rs", "sat"))
            assert sat == (rl and rs), (format_automaton(a), formula, rl, rs, sat)
            if rl != rs:
                alone.add((rl, rs))
        assert alone == {(True, False), (False, True)}


def random_system(rng, i):
    """A random system over 1 to 3 letters, finitary on even draws and
    Buchi on odd ones, with its behaviour built without faircheck's
    ``limit``: a finitary system here is prefix-closed with every state
    accepting, so its behaviour is the Buchi reading of the same rows with
    every state accepting (Konig's lemma)."""
    alphabet = gen.letters(rng.randint(1, 3))
    if i % 2:
        a = gen.random_buchi(rng, alphabet, max_states=5)
        return a, a
    a = gen.random_fin(rng, alphabet, max_states=5, all_accepting=True)
    return a, BuchiAutomaton(alphabet, a.n_states, a.initial, a.accepting, a.transitions)


class TestPrintedArtifacts:
    def test_every_printed_lasso_replays(self, rng, tmp_path, capsys):
        # a failing sat or rs verdict prints a lasso: the formula is false on
        # it, and it is a computation of the system; the draws go on until
        # each check has printed a few
        system = files(tmp_path)[0]
        printed = {"sat": 0, "rs": 0}
        for i in range(300):
            if i >= 40 and min(printed.values()) >= 5:
                break
            a, behaviour = random_system(rng, i)
            text = format_automaton(a)
            system.write_text(text)
            letters = " ".join(a.alphabet.symbols)
            formula = format_formula(gen.random_formula(rng, a.alphabet.symbols, 3))
            for kind in printed:
                argv = ["check", kind, "--system", str(system), "--formula", formula]
                witness = verdict(argv, capsys)["witness"]
                if witness is None:
                    continue
                lasso = witness["lasso"]
                argv = ["eval", "--formula", formula, "--lasso", lasso, "--alphabet", letters]
                assert not verdict(argv, capsys)["holds"], (kind, text, formula, lasso)
                stem, cycle = (tuple(part.split()) for part in lasso.split(";"))
                accepted = oracles.buchi_accepts_lasso(behaviour, LassoWord(stem, cycle))
                assert accepted, (kind, text, formula, lasso)
                printed[kind] += 1
        assert min(printed.values()) >= 5, printed

    def test_synthesize_succeeds_exactly_when_rl_holds(self, rng, tmp_path, capsys):
        # synthesis needs relative liveness and nothing more; what it prints
        # implements the system fairly, every system prefix extends into it,
        # and it satisfies the formula outright.
        # The fixtures' recurrences hold within fairness on fig2 only, and
        # fig2 can also run forever without a result, which the marks exclude
        cases = [(FIG2, "G F result"), (FIG2, "G (request -> F result)"), (FIG3, "G F result")]
        for _ in range(30):
            alphabet = gen.letters(rng.randint(1, 3))
            a = gen.random_fin(rng, alphabet, max_states=5, all_accepting=True)
            formula = gen.random_formula(rng, alphabet.symbols, 3)
            cases.append((format_automaton(a), format_formula(formula)))
        system, _, _, impl = files(tmp_path)
        seen = set()
        for text, formula in cases:
            system.write_text(text)
            rl = check("rl", system, formula, capsys)
            argv = ["synthesize", "--system", str(system), "--formula", formula]
            code, out, err = outcome(argv, capsys)
            assert code == (0 if rl else 1), (text, formula, err)
            seen.add(rl)
            if not rl:
                assert err.startswith("synthesis precondition failed: ")
                continue
            impl.write_text(out)
            argv = ["verify-impl", "--impl", str(impl), "--system", str(system), "--formula", formula]
            assert verdict(argv, capsys)["holds"], (text, formula, out)
            argv = ["machine-closed", "--system", str(system), "--sub", str(impl)]
            assert verdict(argv, capsys)["holds"], (text, formula, out)
            assert check("sat", impl, formula, capsys), (text, formula, out)
        assert seen == {True, False}
