"""Exact stable commutator length computations in free groups.

The package computes scl of rational chains exactly (rectangle-and-polygon
linear programming over exact rationals), the rotation quasimorphism of
the once-punctured torus, the immersion criterion scl = rot/2, and
band-surface certificates with exact Euler characteristics.
"""

__version__ = "0.1.0"

from .errors import (ChainSyntaxError, InvariantViolationError,
                     NotBoundaryError, RankMismatchError,
                     ResourceLimitError, SclError)
from .freegroup import (Chain, ChainTerm, Word, add_chains, canonicalize,
                        chain_of, concat, invert, make_word, scale_chain,
                        single_chain, with_rank, word)
from .chainexpr import format_chain, format_word, parse_chain, parse_word
from .sclenc import build_lp, decode_certificate, scl, solve_chain
from .rotation import (PTRep, punctured_torus_rep, rot, rot_element,
                       turning_number, turning_number_chain)
from .surfcert import (ArcSystem, Matching, SurfaceCertificate,
                       boundary_chain, certificate_from_matching,
                       euler_characteristic, extremality_ratio, matching,
                       read_certificate, search_matching,
                       search_matching_arcs, write_certificate)
from .immersion import (BOUNDARY_CLASS, CriterionReport, ScanReport,
                        StabilizationReport, bounds_immersed,
                        corollary_check, minimal_stabilization,
                        scan_conjecture)
