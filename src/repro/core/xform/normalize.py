"""Field normalization (paper §5.2, Figures 9-10).

"Diderot's fields are abstract values that represent continuous functions.
As such, we use a symbolic representation of field values in the compiler."
This module is that symbolic representation, together with the rewrite
system of Figure 10 that lowers higher-order field operations to operations
on tensors:

.. code-block:: text

   (f₁ + f₂)(x)  ⇒  f₁(x) + f₂(x)          ∇(f₁ + f₂)  ⇒  ∇f₁ + ∇f₂
   (e * f)(x)    ⇒  e * f(x)               ∇(e * f)    ⇒  e * ∇f
                                           ∇(V ⊛ ∇ⁱh)  ⇒  V ⊛ ∇ⁱ⁺¹h

The rewrites are oriented, so a field value built through the smart
constructors here is always in the normal form of Figure 9b, which
guarantees the three invariants the paper lists: differentiation reaches
the kernels, probed fields are direct convolutions, and field arithmetic
becomes tensor arithmetic.  The divergence/curl extensions (§8.3) normalize
to a contraction of a ``V ⊛ ∇ⁱ⁺¹h`` probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.ir.base import Value
from repro.errors import CompileError
from repro.kernels import Kernel


class SymField:
    """A symbolic field value (normalized form of Figure 9b).

    Attributes: ``dim`` (domain dimension), ``shape`` (range tensor shape),
    ``continuity`` (remaining continuous derivatives).
    """

    dim: int
    shape: tuple[int, ...]
    continuity: int

    def leaves(self) -> Iterator["SymConv"]:
        """All convolution leaves (for ``inside`` tests and diagnostics)."""
        raise NotImplementedError


@dataclass(frozen=True)
class SymConv(SymField):
    """``V ⊛ ∇ⁱh``: the terminal form of Figure 9b.

    ``image`` names a global image slot; ``image_dim``/``image_shape``
    record its type; ``deriv`` is the differentiation level ``i``.
    """

    image: str
    image_dim: int
    image_shape: tuple[int, ...]
    kernel: Kernel
    deriv: int

    @property
    def dim(self) -> int:
        return self.image_dim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.image_shape + (self.image_dim,) * self.deriv

    @property
    def continuity(self) -> int:
        return self.kernel.continuity - self.deriv

    def leaves(self):
        yield self


@dataclass(frozen=True)
class SymSum(SymField):
    left: SymField
    right: SymField

    def __post_init__(self):
        if (self.left.dim, self.left.shape) != (self.right.dim, self.right.shape):
            raise CompileError("field sum of incompatible fields")

    @property
    def dim(self) -> int:
        return self.left.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.left.shape

    @property
    def continuity(self) -> int:
        return min(self.left.continuity, self.right.continuity)

    def leaves(self):
        yield from self.left.leaves()
        yield from self.right.leaves()


@dataclass(frozen=True)
class SymScale(SymField):
    """``e * f`` where ``e`` is a runtime scalar.

    ``scale`` is an SSA :class:`Value` when the scaling happens inside the
    function being compiled, or a *global name* (str) when the field was
    defined in the global section — globals are per-function parameters,
    so a cross-function reference must go by name.
    """

    scale: object  # Value | str
    field: SymField

    @property
    def dim(self) -> int:
        return self.field.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.field.shape

    @property
    def continuity(self) -> int:
        return self.field.continuity

    def leaves(self):
        yield from self.field.leaves()


@dataclass(frozen=True)
class SymContract(SymField):
    """Divergence/curl of a convolution: a contraction of ``V ⊛ ∇ⁱ⁺¹h``.

    ``kind`` is ``"div"``, ``"curl2"``, or ``"curl3"``.  The wrapped
    convolution already carries the raised derivative level; probing emits
    the Jacobian probe followed by the contraction.
    """

    kind: str
    conv: SymConv

    @property
    def dim(self) -> int:
        return self.conv.dim

    @property
    def shape(self) -> tuple[int, ...]:
        if self.kind == "curl3":
            return (3,)
        return ()

    @property
    def continuity(self) -> int:
        return self.conv.continuity

    def leaves(self):
        yield self.conv


# --------------------------------------------------------------------------
# the rewrite system (smart constructors keep values in normal form)


def conv(image: str, image_dim: int, image_shape: tuple[int, ...], kernel: Kernel) -> SymConv:
    """``V ⊛ h``: field construction from an image and a kernel."""
    return SymConv(image, image_dim, tuple(image_shape), kernel, 0)


def add(f1: SymField, f2: SymField) -> SymField:
    return SymSum(f1, f2)


def scale(e: Value, f: SymField) -> SymField:
    # Collapse nested scales structurally?  The scales are runtime values,
    # so we keep them; contraction/value numbering will clean up the
    # resulting multiplications instead.
    return SymScale(e, f)


def _check_differentiable(f: SymField, what: str) -> None:
    if f.continuity <= 0:
        raise CompileError(
            f"{what} of a C{f.continuity} field — the type checker should "
            "have rejected this"
        )


def deriv(f: SymField) -> SymField:
    """``∇f`` / ``∇⊗f``: push differentiation to the kernels (Figure 10)."""
    _check_differentiable(f, "derivative")
    if isinstance(f, SymConv):
        return SymConv(f.image, f.image_dim, f.image_shape, f.kernel, f.deriv + 1)
    if isinstance(f, SymSum):
        return SymSum(deriv(f.left), deriv(f.right))
    if isinstance(f, SymScale):
        return SymScale(f.scale, deriv(f.field))
    raise CompileError(f"cannot differentiate {type(f).__name__}")


def divergence(f: SymField) -> SymField:
    """``∇•f`` for a d-vector field (§8.3 extension)."""
    _check_differentiable(f, "divergence")
    if isinstance(f, SymConv):
        raised = SymConv(f.image, f.image_dim, f.image_shape, f.kernel, f.deriv + 1)
        return SymContract("div", raised)
    if isinstance(f, SymSum):
        return SymSum(divergence(f.left), divergence(f.right))
    if isinstance(f, SymScale):
        return SymScale(f.scale, divergence(f.field))
    raise CompileError(f"cannot take divergence of {type(f).__name__}")


def curl(f: SymField) -> SymField:
    """``∇×f`` for a 2-D or 3-D vector field (§8.3 extension)."""
    _check_differentiable(f, "curl")
    if isinstance(f, SymConv):
        if f.shape != (f.dim,) or f.dim not in (2, 3):
            raise CompileError("curl requires a 2-D or 3-D vector field")
        raised = SymConv(f.image, f.image_dim, f.image_shape, f.kernel, f.deriv + 1)
        return SymContract("curl2" if f.dim == 2 else "curl3", raised)
    if isinstance(f, SymSum):
        return SymSum(curl(f.left), curl(f.right))
    if isinstance(f, SymScale):
        return SymScale(f.scale, curl(f.field))
    raise CompileError(f"cannot take curl of {type(f).__name__}")
