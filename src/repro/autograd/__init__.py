"""repro.autograd -- reverse-mode autodiff on numpy with double backward.

Public surface::

    from repro.autograd import Tensor, grad, no_grad
    from repro.autograd import ops            # primitive functional ops
    from repro.autograd import capture        # unified op-stream observers
    from repro.autograd.instrument import KernelCounter
"""

from .config import config, enable_grad, no_grad
from .gradcheck import check_gradients, check_second_order, numerical_grad
from .instrument import (
    KernelCounter,
    OpInfo,
    op_info,
    record_launch,
    register_op,
    registered_ops,
)
from .tensor import GRAD_DTYPE, Tensor, as_tensor, grad, make_op
from .capture import Sanitizer, SanitizerError, TapeEntry, TapeRecorder, capture
from . import ops

__all__ = [
    "Tensor",
    "capture",
    "TapeRecorder",
    "TapeEntry",
    "Sanitizer",
    "SanitizerError",
    "as_tensor",
    "grad",
    "make_op",
    "no_grad",
    "enable_grad",
    "config",
    "ops",
    "GRAD_DTYPE",
    "KernelCounter",
    "record_launch",
    "OpInfo",
    "register_op",
    "op_info",
    "registered_ops",
    "check_gradients",
    "check_second_order",
    "numerical_grad",
]
