"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every operation works on whole tensors (not individual scalars) and records
enough information to run the backward pass:  an op output keeps references
to its parents and a closure that maps the output gradient to the parent
gradients.  ``backward(loss)`` walks the tape in reverse topological order
and passes gradients through every op, but stores ``.grad`` only on leaves
(``Parameter``s and ``requires_grad`` inputs).
The tape is kept after ``backward``, so calling it again accumulates again.
An op records tape links only when some parent has ``requires_grad``; that
gate is how inference (``Segmenter.predict``) runs without a tape.

All data is 64-bit, row-major and contiguous.  There is no broadcasting
beyond what the ops below need, no GPU path, and no in-place arithmetic on
recorded tensors; parameters may be updated in place *between* forward
passes (that is how SGD works).

``matmul``, ``transpose`` and ``softmax_rows`` also take [B, p, q] stacks,
so many independent windows run as one op; each slice of a stacked result
is bit-identical to the rank-2 call on that slice.

The arithmetic of ``matmul``, ``softmax_rows`` and ``apply_mask`` lives in
raw-array helpers (``_matmul_data``, ``_matmul_grads``, ``_softmax_data``,
``_softmax_grad``, ``_mask_data``); that of ``conv2d``, ``gelu`` and
``sigmoid`` in ``_conv2d``, ``_gelu`` and ``_sigmoid``, which return the
output and a pullback from its gradient to the inputs' gradients.  The
public ops are thin ``_op`` wrappers over them, and the composite ops that
record one tape op each (an attention block in ``model.py``, a graph round
in ``graph.py``, a relation branch in ``relation.py``, the boundary gate in
``boundary.py``) call the same helpers on the same operands in the same
order, so their bytes equal the op chain's.  Where one array feeds several
steps of such an op, its gradient parts are added in the tape's order: an
attention block's tokens as (q + k) + v, its input as g + the regrouped
tokens' gradient; a softmax round's nodes as (propagation + relation
a-slot) + transposed slot, a cosine round's as propagation + cosine; a
parallel-fused block's input as (g + global branch) + local branch.

``conv2d`` leans on the same slice equality: a k x k kernel takes one
stacked product of all k*k offsets on small maps and one per kernel row on
wide ones (the size rule is ``_CONV_ONE_STACK_FLOATS``), and the per-offset
products are still summed in ascending (i, j) order from a zero start.  It
also takes an optional leading image axis, [N, C, H, W]: each image's slice
is the product its own call takes, the size rule is applied per image, and
the shared weights' gradient adds the images' parts in ascending order.
"""

from __future__ import annotations

import math

import numpy as np

# GELU tanh-approximation constants: sqrt(2/pi) and the cubic coefficient.
_GELU_C0 = 0.7978845608028654
_GELU_C1 = 0.044715

# conv2d's size rule, in floats per running sum (see its docstring).  In a
# sweep of k = 3, 5, 7 one stack of all k*k offsets was faster than per-row
# stacks up to 588 floats and slower from 968 up.
_CONV_ONE_STACK_FLOATS = 512


class Tensor:
    """A dense float64 array plus an optional gradient slot.

    ``data`` is always a C-contiguous float64 ndarray.  ``grad`` is either
    None or an ndarray of the same shape; ``backward`` accumulates into it
    on leaves only.  Tensors created by operations carry the tape links
    (``_parents`` and ``_backward``) needed for reverse-mode differentiation.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        # asarray keeps rank-0 arrays rank-0 (ascontiguousarray would not).
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        """Reset a leaf's gradient slot to an explicit all-zero array.  An op
        output raises ``ValueError``: ``backward`` never fills its slot."""
        if self._backward is not None:
            raise ValueError(f"zero_grad on an op output {self!r}: backward stores gradients on leaves only")
        self.grad = np.zeros(self.data.shape)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={list(self.shape)}{flag})"


def _held(slot):
    """A property over ``Tensor``'s ``data`` or ``grad`` slot with Parameter's assignment rule."""

    def assign(p: "Parameter", value) -> None:
        held = slot.__get__(p) if p._owned else None
        if held is None:
            slot.__set__(p, value)
        elif value is not held:  # ``p.data -= x`` assigns the view itself
            value = np.zeros(held.shape) if value is None and slot is Tensor.grad else np.asarray(value)
            if value.shape != held.shape:
                raise ValueError(f"{p.name}: {slot.__name__} has shape {list(held.shape)}, "
                                 f"cannot assign {list(value.shape)}")
            held[...] = value

    return property(slot.__get__, assign)


class Parameter(Tensor):
    """A learnable tensor with a name that is unique within one model.

    One made by :func:`draw_parameters`, as every model's and module's are, owns
    views into flat arenas as ``data`` and ``grad``: ``p.data = x`` and ``p.grad = x``
    copy ``x`` into the view, raising ``ValueError`` on a shape mismatch, and
    ``p.grad = None`` zeroes it, so no assignment detaches the parameter.  A
    parameter made directly rebinds like a ``Tensor``.
    """

    __slots__ = ("name", "_owned")
    data = _held(Tensor.data)
    grad = _held(Tensor.grad)

    def __init__(self, data, name: str):
        self.name, self._owned = name, False
        super().__init__(data, requires_grad=True)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={list(self.shape)})"


# One row of a parameter spec: (name, shape, init std); std 0 means zeros.
SpecRow = tuple[str, tuple[int, ...], float]


def draw_parameters(spec: list[SpecRow], rng: np.random.Generator | None,
                    arena: np.ndarray | None = None):
    """Flat ``(arena, grad_arena, parameters)`` for ``spec``'s rows, in order.

    Each parameter owns its row's slices of the arena and of a zeroed
    gradient arena.  Without ``arena``, a zeroed one is made and each row is
    drawn straight into its slice as ``std`` times standard normals, as
    ``rng.normal(0, std, shape)`` draws it; a row with std 0 stays zero and
    takes no draws.  A given ``arena``, one float64 value per spec element,
    is taken over as it is and nothing is drawn.
    """
    sizes = [math.prod(shape) for _, shape, _ in spec]
    total, drawn = sum(sizes), arena is None
    if drawn:
        arena = np.zeros(total)
    elif arena.shape != (total,) or arena.dtype != np.float64:
        raise ValueError(f"arena must be {total} float64 values, got {arena.dtype} {list(arena.shape)}")
    grad_arena = np.zeros(total)
    params, start = [], 0
    for (name, shape, std), size in zip(spec, sizes):
        data = arena[start:start + size]
        if drawn and std:
            rng.standard_normal(out=data)
            data *= std
        p = Parameter(data.reshape(shape), name)
        p.grad, p._owned = grad_arena[start:start + size].reshape(shape), True
        params.append(p)
        start += size
    return arena, grad_arena, params


def _op(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """Wrap an op result, recording tape links only when gradients can flow."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every leaf ``t``.

    Gradients flow through every op on the tape, but only leaves (tensors
    with no ``_backward``: ``Parameter``s and ``requires_grad`` inputs)
    store them; op outputs keep ``grad is None``.  ``loss`` must hold a
    single element.  Repeated calls without a gradient reset keep
    accumulating, matching the usual autograd contract.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward() needs a scalar loss, got shape {list(loss.shape)}")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = flowing.pop(id(node), None)
        if g is None or not node.requires_grad:
            continue
        if node._backward is None:
            grad = node.grad  # adding through a local skips Parameter's setter
            if grad is None:
                node.grad = grad = np.zeros(node.data.shape)
            grad += g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            held = flowing.get(id(parent))
            flowing[id(parent)] = pg if held is None else held + pg


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {list(a.shape)} vs {list(b.shape)}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")
    return _op(a.data + b.data, (a, b), lambda g: (g, g))


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shaped tensors."""
    _require_same_shape(a, b, "hadamard")
    ad, bd = a.data, b.data
    return _op(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scalar_mul(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _op(a.data * s, (a,), lambda g: (g * s,))


def sum_all(a: Tensor) -> Tensor:
    """Sum of every element, as a rank-0 tensor."""
    shape = a.shape
    return _op(np.asarray(a.data.sum()), (a,), lambda g: (np.full(shape, float(g)),))


def _matmul_data(ad: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """``matmul``'s forward on raw arrays, shape checks included."""
    if ad.ndim not in (2, 3) or bd.ndim not in (2, ad.ndim):
        raise ValueError(f"matmul: need [p,q] or [B,p,q] @ [q,s] or [B,q,s], "
                         f"got {list(ad.shape)} and {list(bd.shape)}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ValueError(f"matmul: inner dimensions disagree, {list(ad.shape)} vs {list(bd.shape)}")
    if bd.ndim == 3 and ad.shape[0] != bd.shape[0]:
        raise ValueError(f"matmul: stack sizes disagree, {list(ad.shape)} vs {list(bd.shape)}")
    return np.matmul(ad, bd)


def _matmul_grads(ad: np.ndarray, bd: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``matmul``'s backward on raw arrays: the gradients of ``ad`` and ``bd``."""
    da = np.matmul(g, bd.mT)
    db = np.matmul(ad.mT, g)
    if db.ndim > bd.ndim:
        # A shared b receives the sum of every slice's contribution, added
        # in ascending slice order as a loop of rank-2 calls would add them.
        db = _ascending_sum(db)
    return da, db


def _ascending_sum(parts: np.ndarray) -> np.ndarray:
    """``parts[0] + parts[1] + ...`` over the leading axis, in ascending order
    (``sum()`` may pair them up differently).  The caller gives ``parts`` up,
    so the running sum accumulates in place into its first slice rather than
    building all the partial sums."""
    acc = parts[0]
    for i in range(1, parts.shape[0]):
        acc += parts[i]
    return acc


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product [p x q] @ [q x s] -> [p x s], optionally over a stack.

    ``a`` may be a [B, p, q] stack; ``b`` is then either a matching
    [B, q, s] stack (slice-by-slice products) or one [q, s] matrix shared
    by every slice.  Each slice's product is computed exactly as the
    rank-2 call would compute it.
    """
    ad, bd = a.data, b.data
    return _op(_matmul_data(ad, bd), (a, b), lambda g: _matmul_grads(ad, bd, g))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes of a [p, q] matrix or a [B, p, q] stack."""
    if a.ndim not in (2, 3):
        raise ValueError(f"transpose: rank-2 or rank-3 tensor required, got {list(a.shape)}")
    return _op(np.swapaxes(a.data, -1, -2), (a,), lambda g: (np.swapaxes(g, -1, -2),))


def permute(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(np.argsort(axes))
    return _op(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.shape
    return _op(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def take(a: Tensor, index: int) -> Tensor:
    """Select slice ``index`` along axis 0; backward scatters into that slot."""

    def _bw(g):
        full = np.zeros(a.shape)
        full[index] = g
        return (full,)

    return _op(a.data[index].copy(), (a,), _bw)


def stack(tensors: list[Tensor]) -> Tensor:
    """Stack same-shaped tensors along a new leading axis."""
    if not tensors:
        raise ValueError("stack: need at least one tensor")
    first = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != first:
            raise ValueError(f"stack: shape mismatch {list(first)} vs {list(t.shape)}")
    data = np.stack([t.data for t in tensors])
    return _op(data, tuple(tensors), lambda g: tuple(g[k] for k in range(len(tensors))))


def _mask_data(a: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """``a`` where ``kept`` is True, exactly 0 elsewhere: ``apply_mask``'s
    forward and, on the gradient, its backward.

    The bytes of ``np.where(kept, a, 0.0)``, signed zeros, infinities and
    NaNs included, as a bitwise AND of each float's bits with an all-ones
    (kept) or all-zeros word.  Unlike ``np.where`` it takes no branch per
    entry, so a mask that keeps a scattered 65% costs no more than one that
    keeps everything.
    """
    bits = kept.astype(np.int64)
    np.negative(bits, out=bits)
    bits &= a.view(np.int64)
    return bits.view(np.float64)


def apply_mask(a: Tensor, mask: np.ndarray) -> Tensor:
    """Keep entries where ``mask`` is True, set the rest to exactly 0.

    The mask is a constant: gradients pass through kept entries unchanged
    and are zero elsewhere.
    """
    if mask.shape != a.shape:
        raise ValueError(f"apply_mask: shape mismatch {list(a.shape)} vs {list(mask.shape)}")
    kept = mask.astype(bool)
    return _op(_mask_data(a.data, kept), (a,), lambda g: (_mask_data(g, kept),))


def conv2d(x: Tensor, w: Tensor) -> Tensor:
    """Same-size 2-D cross-correlation with zero padding and no bias.

    ``x`` is [C_in, H, W], or an [N, C_in, H, W] stack of N images that each
    come out as their own call would; ``w`` is [C_out, C_in, k, k] with odd
    ``k``.  The k=1 case is a single channel-mixing matmul per pixel (one
    broadcast product over a stack).

    For k > 1 the k*k offsets' [C_out, C_in] weights meet shifted copies of
    the zero-padded input, [C_in, H*W] each, in stacked ``np.matmul`` calls,
    and the products are summed in ascending (i, j) order from zero.  Each
    slice is the rank-2 product a per-offset loop takes, so output and
    gradients are byte-identical to that loop.  The offsets are grouped by
    the size of one image:

    - Small maps, where both running sums (the C_out*H*W output and the
      C_in*(H+k-1)*(W+k-1) padded input gradient) cover at most
      ``_CONV_ONE_STACK_FLOATS`` floats: one product of all k*k offsets
      forward, and one each for dW and the dX pieces backward.  The pieces
      go into their padded windows of one zeroed [k*k, ...] stack through a
      strided view, and each stack is summed by one ``np.add.accumulate``
      (``_running_sum``): 3 matmul calls instead of 21 at k = 7, and no
      per-offset Python loop.
    - Wider maps: one stacked product per kernel row (k calls forward, 2k
      backward), whose products are added one at a time into zero-filled
      buffers.  ``accumulate`` along a leading axis runs its inner loop
      across that axis, which is slow on wide rows: 560 us on 49 rows of
      2048 floats, against 76 us for 49 in-place adds.  A row's stack also
      stays under glibc's 128 KiB mmap threshold at medium scale: 112 KiB
      at [2, 32, 32], where 49 offsets would take 784 KiB.

    On a stack, dW is each image's dW added in ascending image order.
    """
    out, pullback = _conv2d(x.data, w.data)
    return _op(out, (x, w), pullback)


def _conv2d(xd: np.ndarray, wd: np.ndarray):
    """``conv2d`` on raw arrays, shape checks included: the output and its pullback to (dx, dw)."""
    if xd.ndim not in (3, 4) or wd.ndim != 4:
        raise ValueError(f"conv2d: need [C,H,W] or [N,C,H,W] input and [O,C,k,k] weights, "
                         f"got {list(xd.shape)} and {list(wd.shape)}")
    c_out, c_in, k, kw = wd.shape
    if k != kw:
        raise ValueError(f"conv2d: square kernels only, got {k}x{kw}")
    if k % 2 == 0:
        raise ValueError(f"conv2d: even kernel size {k} rejected, same-size padding needs odd k")
    if xd.shape[-3] != c_in:
        raise ValueError(f"conv2d: channel mismatch, input has {xd.shape[-3]}, weights expect {c_in}")
    # lead is () for one image and (N,) for a stack; every array below keeps
    # it just before its per-image [C, H, W] (or [C, H*W]) axes.
    *lead, _, h, wdt = xd.shape
    nl, hw, pad = len(lead), h * wdt, (k - 1) // 2

    if k == 1:
        w2, x2 = wd[:, :, 0, 0], xd.reshape(*lead, c_in, hw)

        def _bw(g):
            dw, dx = _matmul_grads(w2, x2, g.reshape(*lead, c_out, hw))
            return dx.reshape(xd.shape), (_ascending_sum(dw) if lead else dw).reshape(c_out, c_in, 1, 1)

        return np.matmul(w2, x2).reshape(*lead, c_out, h, wdt), _bw

    xp = np.zeros((*lead, c_in, h + 2 * pad, wdt + 2 * pad))
    xp[..., pad:pad + h, pad:pad + wdt] = xd
    # shifted[..., :, i, j, :, :] is the input seen through kernel offset
    # (i, j), and ws[i, j] that offset's [C_out, C_in] weights.
    *sn, sc, sh, sw = xp.strides
    shifted = np.lib.stride_tricks.as_strided(xp, (*lead, c_in, k, k, h, wdt), (*sn, sc, sh, sw, sh, sw),
                                              writeable=False)
    ws = wd.transpose(2, 3, 0, 1)
    # One group of all k*k offsets on small maps, one group per kernel row
    # on wide ones; offset n = i * k + j within the flattened stacks.
    one_stack = max(c_out * hw, c_in * (h + 2 * pad) * (wdt + 2 * pad)) <= _CONV_ONE_STACK_FLOATS
    every_row = slice(None)
    groups = [every_row] if one_stack else [slice(i, i + 1) for i in range(k)]
    offsets_first = (nl + 1, nl + 2, *range(nl + 1), nl + 3, nl + 4)

    def patches(rows):
        """The shifted inputs of kernel rows ``rows`` as one [n, *lead, C_in, HW] stack.

        ``reshape`` copies into a contiguous stack exactly when reshaping one
        offset's [C_in, H, W] slice copies (always, unless H or W is 1), so
        every patch has the strides, and numpy picks the matmul kernel,
        that the offset's own rank-2 product would get.
        """
        return shifted[..., rows, :, :, :].transpose(offsets_first).reshape(-1, *lead, c_in, hw)

    def weights(rows):
        """Those rows' [n, *1s, C_out, C_in] offset weights: a view (offsets are
        adjacent in ``wd``), so each slice keeps ``wd[:, :, i, j]``'s strides."""
        return ws[rows].reshape(-1, *(1,) * nl, c_out, c_in)

    if one_stack:
        out = _running_sum(np.matmul(weights(every_row), patches(every_row))).reshape(*lead, c_out, h, wdt)
    else:
        out = np.zeros((*lead, c_out, h, wdt))
        for rows in groups:
            for product in np.matmul(weights(rows), patches(rows)).reshape(k, *lead, c_out, h, wdt):
                out += product

    def _bw(g):
        g2 = g.reshape(*lead, c_out, hw)
        dw = np.empty_like(wd)
        for rows in groups:
            parts = np.matmul(g2, patches(rows).mT)
            dw[:, :, rows] = (_ascending_sum(np.moveaxis(parts, 1, 0)) if lead else parts).reshape(
                -1, k, c_out, c_in).transpose(2, 3, 0, 1)
        if one_stack:
            # Slot n of a zeroed [k*k, *lead, C_in, H+k-1, W+k-1] stack takes
            # offset n's piece in its padded window, all k*k in one strided copy.
            pieces = np.matmul(weights(every_row).mT, g2).reshape(k, k, *lead, c_in, h, wdt)
            slots = np.zeros((k * k, *xp.shape))
            s0, *sn, sc, sh, sw = slots.strides
            np.lib.stride_tricks.as_strided(slots, pieces.shape, (k * s0 + sh, s0 + sw, *sn, sc, sh, sw))[...] = pieces
            dxp = _running_sum(slots)
        else:
            dxp = np.zeros_like(xp)
            for i, rows in enumerate(groups):
                pieces = np.matmul(weights(rows).mT, g2).reshape(k, *lead, c_in, h, wdt)
                for j in range(k):
                    dxp[..., i:i + h, j:j + wdt] += pieces[j]
        return (dxp[..., pad:pad + h, pad:pad + wdt], dw)

    return out, _bw


def _running_sum(stack: np.ndarray) -> np.ndarray:
    """``0.0 + stack[0] + stack[1] + ...`` in ascending order, as a new array.

    Works in place on ``stack``, which the caller gives up.  ``accumulate``
    adds strictly in ascending order, and the ``+ 0.0`` seed makes the sum
    the zero-initialised loop's, signed zeros included: the running sum is
    then never -0.0, so zero slots (the padding of a scattered stack) leave
    it unchanged.  The result is copied out so the stack can be freed.
    """
    stack[0] += 0.0
    np.add.accumulate(stack, axis=0, out=stack)
    return stack[-1].copy()


def _softmax_data(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row softmax of a raw array, stabilised by the per-row max.

    All steps after the max-subtraction work in place on one buffer: a new
    one, or ``out``, which may be ``a`` itself when the caller owns it.  The
    same elementwise steps as e / e.sum() with e = exp(a - max).

    The row max is the element ``argmax`` picks, gathered by flat index:
    on short rows that is a quarter of ``max``'s cost.  It only feeds
    ``exp(a - m)``, so which of a +0/-0 tie it is changes no output byte.
    A NaN's payload does: ``max`` keeps it or not by where the NaN sits (it
    gave 0x7ff8000000000000 for a payload-5 NaN leading five entries), so
    when any row holds a NaN, ``max`` itself gives the row maxima.
    """
    flat = a.argmax(axis=-1, keepdims=True)
    flat += np.arange(0, a.size, a.shape[-1]).reshape(flat.shape)
    m = a.reshape(-1)[flat]
    if np.isnan(m).any():
        m = a.max(axis=-1, keepdims=True)
    s = np.subtract(a, m, out=out)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _softmax_grad(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Softmax backward, s * (g - (g * s).sum()), in one new buffer."""
    t = g * s
    np.subtract(g, t.sum(axis=-1, keepdims=True), out=t)
    t *= s
    return t


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax along the last axis of a [p, q] matrix or a [B, p, q] stack,
    stabilised by the per-row max."""
    if a.ndim not in (2, 3):
        raise ValueError(f"softmax_rows: rank-2 or rank-3 tensor required, got {list(a.shape)}")
    s = _softmax_data(a.data)
    return _op(s, (a,), lambda g: (_softmax_grad(s, g),))


def _gelu(xd: np.ndarray):
    """``gelu`` on a raw array: the output and its pullback."""
    u = _GELU_C0 * (xd + _GELU_C1 * xd ** 3)
    t = np.tanh(u)

    def pullback(g):
        du = _GELU_C0 * (1.0 + 3.0 * _GELU_C1 * xd * xd)
        return (g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du),)

    return 0.5 * xd * (1.0 + t), pullback


def gelu(x: Tensor) -> Tensor:
    """GELU activation, tanh approximation."""
    out, pullback = _gelu(x.data)
    return _op(out, (x,), pullback)


def _sigmoid(xd: np.ndarray):
    """``sigmoid`` on a raw array: the output and its pullback."""
    # exp only ever sees -|x|: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below.
    # min(x, -x) and max(e, x >= 0) pick without np.where's branch per entry;
    # unlike -abs(x), min keeps a NaN's sign bit.
    e = np.exp(np.minimum(xd, -xd))
    out = np.maximum(e, xd >= 0) / (1.0 + e)
    return out, lambda g: (g * out * (1.0 - out),)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function, computed branch-wise so neither tail overflows.

    Output is strictly inside (0, 1) until float64 saturates (|x| > ~36).
    """
    out, pullback = _sigmoid(x.data)
    return _op(out, (x,), pullback)


def cross_entropy_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean per-pixel cross entropy of [num_classes, H, W] logits.

    ``labels`` is an integer [H, W] map of target class ids; it is a
    constant, so the only gradient path is through the logits.
    """
    if logits.ndim != 3:
        raise ValueError(f"cross_entropy_logits: need [classes,H,W] logits, got {list(logits.shape)}")
    labels = np.asarray(labels)
    if labels.shape != logits.shape[1:]:
        raise ValueError(
            f"cross_entropy_logits: label shape {list(labels.shape)} does not match logits {list(logits.shape)}")
    if labels.min() < 0 or labels.max() >= logits.shape[0]:
        raise ValueError("cross_entropy_logits: label id outside [0, num_classes)")

    ld = logits.data
    m = ld.max(axis=0)
    lse = np.log(np.exp(ld - m).sum(axis=0)) + m
    target = (labels, *np.indices(labels.shape, sparse=True))  # each pixel's target logit
    picked = ld[target]
    n_pix = labels.size
    loss = np.asarray((lse - picked).sum() / n_pix)

    def _bw(g):
        p = np.exp(ld - lse)
        p[target] -= 1.0
        return (p * (float(g) / n_pix),)

    return _op(loss, (logits,), _bw)
