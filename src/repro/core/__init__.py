"""The paper's core contribution: local-sensitivity algorithms."""

from repro.core.acyclic import (
    compute_topjoins,
    extrapolate_assignment,
    multiplicity_table,
)
from repro.core.api import local_sensitivity, most_sensitive_tuples, tsens
from repro.core.explain import Explanation, explain
from repro.core.verify import VerificationReport, verify_result
from repro.core.naive import (
    DomainTooLargeError,
    naive_local_sensitivity,
    naive_tuple_sensitivity,
)
from repro.core.path import ls_path_join
from repro.core.result import MultiplicityTable, SensitiveTuple, SensitivityResult
from repro.core.topk import clamp_to_top_k, tsens_topk

__all__ = [
    "DomainTooLargeError",
    "Explanation",
    "VerificationReport",
    "verify_result",
    "explain",
    "MultiplicityTable",
    "SensitiveTuple",
    "SensitivityResult",
    "clamp_to_top_k",
    "compute_topjoins",
    "extrapolate_assignment",
    "local_sensitivity",
    "ls_path_join",
    "most_sensitive_tuples",
    "multiplicity_table",
    "naive_local_sensitivity",
    "naive_tuple_sensitivity",
    "tsens",
    "tsens_topk",
]
