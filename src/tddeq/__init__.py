"""tddeq: equivalence checking of dynamic quantum circuits with tensor
decision diagrams."""

from .circuits import (Branch, CircuitSpec, CondGate, Conventional, Gate,
                       Measure, MeasureStep, Seq, Verdict, gate,
                       lower_controls, qvar, seq, validate)
from .encode import (CompileError, CompileScaleError, compile_pair,
                     compile_spec, controlled_gate_tensor, measurement_tensor)
from .equivalence import check, get_nodes, m_eq, q_eq
from .logic import BoolFunc, func_to_tensor
from .oracle import (OracleScaleError, oracle_full_eq, oracle_m_eq,
                     oracle_q_eq, outcome_distribution, semantics,
                     superoperator)
from .tdd import (KIND_OUTCOME, KIND_PRINCIPAL, KIND_WIRE, IndexId, Tdd,
                  TddEdge, TddManager, TddNode)
from .textfmt import ParseError, parse, print_spec

__version__ = "0.1.0"
