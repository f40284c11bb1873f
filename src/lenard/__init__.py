"""Exact computation with non-local Poisson structures over differential
function fields: operator calculus, Poisson/compatibility verdicts, and the
Lenard-Magri recursion for integrable hierarchies."""

from .brackets import (check_compatible, check_jacobi, check_skewadjoint,
                       evolutionary_bracket, functional_action,
                       functional_bracket, lambda_bracket)
from .chains import (Chain, ChainStep, StructurePair, extend_left, extend_right,
                     predict_dord, verify_association, verify_higher_structures)
from .field import Context, DFun
from .functional import (LocalFunctional, antiderivative, is_null_functional,
                         reduce_by_parts, variational_derivative)
from .grammar import (fun_latex, fun_text, parse_function, parse_operator,
                      vec_latex, vec_text)
from .jacobi import AtomChain, AtomStructure, SumChain
from .liouville import (classification_table, classify, closed_form_family,
                        empirical_class, hodograph_dual)
from .operators import (MatrixPsdOp, OperatorSum, RationalOpPair, ScalarPsdOp,
                        default_floor, expand_fraction, is_nondegenerate,
                        right_lcm, skew_divide, verify_fraction)
from .presets import load_preset, preset_ids
from .solve import AnsatzSpace, kernel_of, solve_operator_equation

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
