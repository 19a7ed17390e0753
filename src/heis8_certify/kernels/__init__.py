from .modelim import eliminate_mod_p, required_dtype, solve_mod_p
from .sampling import sample_quadric_points

__all__ = [
    "eliminate_mod_p",
    "required_dtype",
    "solve_mod_p",
    "sample_quadric_points",
]
