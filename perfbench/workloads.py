"""The benchmark's workloads: fixed multisets of command-line jobs.

Each job is the argument list of one `hopfcyclic.cli.main` call over the
shipped `data/*.json` corpus.  The counts are fixed; the workload seed only
permutes the order, so one pass is the same amount of work under every seed.
"""

WORKLOADS = {
    # Mixed-complex path (crossed -> homology.mixed_complex / cyclic_dims ->
    # linalg) with Fraction arithmetic: matmul and elimination dominate.
    "crossed-hc": [
        ["compute", "hc", "-i", "data/c3_Q.json", "--nmax", "2"],
        ["compute", "hh", "-i", "data/c3_Q_trivial.json", "--nmax", "2"],
        ["compute", "hc", "-i", "data/c2_Q.json", "--nmax", "2"],
        ["compute", "hh", "-i", "data/c2_Q.json", "--nmax", "2"],
        ["compare", "diagonal-vs-direct", "-i", "data/c2_Q.json", "--nmax", "2"],
        ["compare", "collapse-algebra", "-i", "data/c2_Q.json", "--nmax", "2"],
        ["compare", "collapse-coalgebra", "-i", "data/c2_Q.json", "--nmax", "2"],
    ],
    # Operator-compiler path (cylinder -> tensor.compile_operator -> linalg
    # matmul / kron / ==) with no elimination; the same inputs recur across
    # jobs, so a cross-job cache would show here and not in crossed-hc.
    "cylinder-verify": [
        ["verify", "hopf", "-i", "data/sweedler_Q.json"],
        ["verify", "comodule-algebra", "-i", "data/sweedler_Q.json"],
        ["verify", "module-coalgebra", "-i", "data/sweedler_Q.json"],
        ["verify", "cylindrical", "-i", "data/sweedler_Q.json",
         "--pmax", "2", "--qmax", "1"],
        ["verify", "cylindrical", "-i", "data/c3_Q.json",
         "--pmax", "2", "--qmax", "2"],
        ["verify", "cocylindrical", "-i", "data/sweedler_Q.json",
         "--pmax", "1", "--qmax", "1"],
        ["verify", "transforms", "-i", "data/sweedler_Q.json",
         "--pmax", "1", "--qmax", "1"],
        ["verify", "transforms", "-i", "data/c2_Q.json",
         "--pmax", "2", "--qmax", "2"],
        ["verify", "iso", "-i", "data/sweedler_Q.json", "--nmax", "1"],
        ["verify", "iso", "-i", "data/c3_Q.json", "--nmax", "2"],
    ],
    # Elimination path (homology.spectral_pages -> Subspace / _echelonize) on
    # integer F_2 scalars: never touches Fraction, so a Q-only arithmetic
    # change should leave it unchanged.  The last job is expected to fail
    # (exit 1): collapse does not hold in characteristic 2.
    "spectral-fp": [
        ["compute", "ss-pages", "-i", "data/c2_F2.json",
         "--rmax", "2", "--pmax", "2", "--qmax", "2"],
        ["compute", "ss-pages", "-i", "data/c2_F2_trivial.json",
         "--rmax", "2", "--pmax", "2", "--qmax", "2"],
        ["compute", "hopf-homology", "-i", "data/c2_F2.json", "--qmax", "8"],
        ["compute", "comodule-cohomology", "-i", "data/c2_F2.json",
         "--pmax", "8"],
        ["compute", "coinvariants", "-i", "data/c2_F2.json", "--nmax", "3"],
        ["compare", "ez-hochschild", "-i", "data/c2_F2.json", "--nmax", "2"],
        ["compute", "hc", "-i", "data/c2_F2.json", "--nmax", "3"],
        ["compare", "collapse-algebra", "-i", "data/c2_F2.json", "--nmax", "2"],
    ],
}
