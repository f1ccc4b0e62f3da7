"""Continued-fraction digit streams, Farey-map renewal processes, and limit-law experiments."""

__version__ = "0.1.0"

from .bits import BitSource
from .exact import (
    DigitOverflowError,
    DigitStream,
    LazyReal,
    MobiusState,
    NonGenericPointError,
    StreamExhausted,
    digits_of_rational,
)

__all__ = [
    "BitSource",
    "DigitOverflowError",
    "DigitStream",
    "LazyReal",
    "MobiusState",
    "NonGenericPointError",
    "StreamExhausted",
    "digits_of_rational",
    "__version__",
]
