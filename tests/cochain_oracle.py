"""The hand-written cochain checks and the transposed cyclic module: the
test oracles for the package's one reading of a cocyclic module.

`crossed.check_cocyclic_ops` runs the cyclic suite on a cocyclic module
read in cochain order, and the coalgebra-side isomorphism check runs the
chain-side intertwining check the same way.  These are the cosimplicial and
cocyclic relations, and the cointertwining check, as the package wrote them
out before: same names, same degree labels, same order.  `transposed_cyclic`
is the dual cyclic module with every map transposed up front, the module
that the cochain-order reading stands for.
"""

from hopfcyclic.crossed import CyclicOps
from hopfcyclic.errors import NotIntertwining
from hopfcyclic.hopf import CheckReport
from hopfcyclic.linalg import SparseMatrix


def transposed_cyclic(co):
    """The cyclic module of a cocyclic module's transpose, every map
    transposed as it is read off: face (n + 1, i) = (delta^i)^T for coface
    (n, i), degeneracy (n - 1, i) = (sigma^i)^T for codegeneracy (n, i) and
    t(n) = tau(n)^T.  Transposing reverses composition, so each cocyclic
    relation becomes the matching cyclic one (Connes 1983)."""
    return CyclicOps(
        co.field, co.dims,
        {(n + 1, i): m.transpose() for (n, i), m in co.cofaces.items()},
        {(n - 1, i): m.transpose() for (n, i), m in co.codegens.items()},
        {n: m.transpose() for n, m in co.cocyclic.items()}, co.N)


def check_cocyclic_ops(ops, cocyclic=True, report=None):
    """Cosimplicial + cocyclic-compatibility relations; t^(n+1) = id if cocyclic."""
    rep = report or CheckReport("cocyclic module")
    N = ops.N

    def chk(name, n, lhs, rhs):
        rep.record_bool(name, lhs == rhs, "degree %d" % n)

    for n in range(N - 1):
        for j in range(n + 2 + 1):
            for i in range(j):
                chk("del^j del^i = del^i del^{j-1}", n,
                    ops.coface(n + 1, j) @ ops.coface(n, i),
                    ops.coface(n + 1, i) @ ops.coface(n, j - 1))
    for n in range(2, N + 1):
        for i in range(n):
            for j in range(i, n - 1):
                chk("sig^j sig^i = sig^i sig^{j+1}", n,
                    ops.codegen(n - 1, j) @ ops.codegen(n, i),
                    ops.codegen(n - 1, i) @ ops.codegen(n, j + 1))
    for n in range(N):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = ops.codegen(n + 1, j) @ ops.coface(n, i)
                if i < j:
                    rhs = ops.coface(n - 1, i) @ ops.codegen(n, j - 1)
                elif i in (j, j + 1):
                    rhs = SparseMatrix.identity(ops.field, ops.dim(n))
                else:
                    rhs = ops.coface(n - 1, i - 1) @ ops.codegen(n, j)
                chk("sig^j del^i relations", n, lhs, rhs)
    for n in range(N):
        chk("t del^0 = del^{n+1}", n,
            ops.t(n + 1) @ ops.coface(n, 0), ops.coface(n, n + 1))
        for i in range(1, n + 2):
            chk("t del^i = del^{i-1} t", n,
                ops.t(n + 1) @ ops.coface(n, i),
                ops.coface(n, i - 1) @ ops.t(n))
    for n in range(1, N + 1):
        chk("t sig^0 = sig^{n-1} t^2", n,
            ops.t(n - 1) @ ops.codegen(n, 0),
            ops.codegen(n, n - 1) @ ops.t(n) @ ops.t(n))
        for i in range(1, n):
            chk("t sig^i = sig^{i-1} t", n,
                ops.t(n - 1) @ ops.codegen(n, i),
                ops.codegen(n, i - 1) @ ops.t(n))
    if cocyclic:
        for n in range(N + 1):
            tn = SparseMatrix.identity(ops.field, ops.dim(n))
            for _ in range(n + 1):
                tn = ops.t(n) @ tn
            chk("t^(n+1) = id", n, tn,
                SparseMatrix.identity(ops.field, ops.dim(n)))
    return rep


def _check_cointertwining(phi, src, dst):
    N = min(src.N, dst.N, max(phi))
    for n in range(N + 1):
        if phi[n] @ src.t(n) != dst.t(n) @ phi[n]:
            raise NotIntertwining("t at degree %d" % n)
    for n in range(N):
        for i in range(n + 2):
            if phi[n + 1] @ src.coface(n, i) != dst.coface(n, i) @ phi[n]:
                raise NotIntertwining("del^%d at degree %d" % (i, n))
    for n in range(1, N + 1):
        for i in range(n):
            if phi[n - 1] @ src.codegen(n, i) != dst.codegen(n, i) @ phi[n]:
                raise NotIntertwining("sig^%d at degree %d" % (i, n))
