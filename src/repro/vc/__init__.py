"""Verifiable computation substrate.

The paper instantiates its VC framework with Pequin/libsnark (a Groth16-style
zk-SNARK over BN-128).  This package provides:

- a prime-field arithmetic layer over the BN-128 scalar field
  (:mod:`repro.vc.field`);
- a circuit builder producing Rank-1 Constraint Systems with witness hints
  (:mod:`repro.vc.circuit`, :mod:`repro.vc.r1cs`, :mod:`repro.vc.gadgets`);
- a tiny stored-procedure DSL and the transaction circuit compiler
  (:mod:`repro.vc.program`, :mod:`repro.vc.compiler`);
- two proof backends (:mod:`repro.vc.snark`):
  * :class:`~repro.vc.snark.Groth16Simulator` — an ideal-functionality
    simulation of Groth16 with the paper-calibrated cost model (see
    DESIGN.md, substitution 1);
  * :class:`~repro.vc.spotcheck.SpotCheckBackend` — a *real* probabilistic
    argument (Merkle-committed witness + Fiat-Shamir constraint sampling).
"""

from .circuit import Circuit, CircuitBuilder, LinearCombination
from .compiler import CircuitCompiler, TransactionCircuit
from .field import FIELD_PRIME, inv, normalize
from .program import (
    Add,
    Const,
    Emit,
    Eq,
    If,
    Lt,
    Mul,
    Param,
    Program,
    ReadStmt,
    ReadVal,
    Sub,
    WriteStmt,
)
from .r1cs import R1CS
from .snark import Groth16Simulator, Proof, ProvingKey, SnarkBackend, VerificationKey
from .spotcheck import SpotCheckBackend, SpotCheckProof

__all__ = [
    "Add",
    "Circuit",
    "CircuitBuilder",
    "CircuitCompiler",
    "Const",
    "Emit",
    "Eq",
    "FIELD_PRIME",
    "Groth16Simulator",
    "If",
    "LinearCombination",
    "Lt",
    "Mul",
    "Param",
    "Program",
    "Proof",
    "ProvingKey",
    "R1CS",
    "ReadStmt",
    "ReadVal",
    "SnarkBackend",
    "SpotCheckBackend",
    "SpotCheckProof",
    "Sub",
    "TransactionCircuit",
    "VerificationKey",
    "WriteStmt",
    "inv",
    "normalize",
]
