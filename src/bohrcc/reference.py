"""Reference values for the bundled result tables.

The table commands recompute every row and emit a diff column against
these constants, so regressions in the numerics are self-auditing.
Values are stored as strings to preserve their printed precision; the
diff is taken after truncating the freshly computed value to the same
number of decimals.
"""

from .catalog import SQRT_HALF

#: table 1 -- radius for the lemniscate family under the Sc class, by s
TABLE1 = (
    (0.1, "0.71184"),
    (0.15, "0.619461"),
    (0.2, "0.546344"),
    (0.25, "0.486934"),
    (0.3, "0.437693"),
    (0.35, "0.39624"),
    (0.4, "0.360903"),
    (0.45, "0.330472"),
    (0.5, "0.3040402"),
    (0.55, "0.28091732"),
    (0.6, "0.2605657"),
    (0.65, "0.24256"),
    (0.7, "0.226558"),
    (SQRT_HALF, "0.22443096"),
)

#: table 2 -- expblend family: alpha, h(1/3), -h(-1), sign of the gap at 0 and at 1/3
TABLE2 = (
    (0.0, "0.47935", "0.4508594", "-", "+"),
    (0.01, "0.477619", "0.454465", "-", "+"),
    (0.02, "0.475887697", "0.458100015", "-", "+"),
    (0.03, "0.47416191", "0.4617638", "-", "+"),
    (0.04, "0.47244238", "0.465456", "-", "+"),
    (0.05, "0.470729", "0.469179", "-", "+"),
    (0.06, "0.469022", "0.47293", "-", "-"),
    (0.07, "0.46732112", "0.4767143", "-", "-"),
)

#: table 3 -- strongly starlike family: alpha, h(1/3), -h(-1), gap signs
TABLE3 = (
    (0.2, "0.38335", "0.65515", "-", "-"),
    (0.4, "0.4453711", "0.475453", "-", "-"),
    (0.45, "0.4631699", "0.443795", "-", "+"),
    (0.5, "0.482023", "0.415759", "-", "+"),
    (0.6, "0.523214", "0.368431", "-", "+"),
    (0.7, "0.569663", "0.330139", "-", "+"),
    (0.8, "0.62222", "0.298621", "-", "+"),
    (0.9, "0.681928", "0.272286", "-", "+"),
)

#: table 4 -- radius for the Janowski family under the Sc class, by (A, B)
TABLE4 = (
    (1.0, -0.1, "0.261789"),
    (1.0, -0.2, "0.247088"),
    (1.0, -0.3, "0.23402"),
    (1.0, -0.4, "0.222323"),
    (1.0, -0.5, "0.21179"),
    (1.0, -0.6, "0.202239"),
    (1.0, -0.7, "0.193548"),
    (1.0, -0.8, "0.185599"),
    (1.0, -0.9, "0.1783"),
    (1.0, -1.0, "0.17157"),
    (0.5, -0.1, "0.432852"),
    (0.5, -0.2, "0.395824"),
    (0.5, -0.3, "0.364714"),
    (0.5, -0.4, "0.338205"),
    (0.5, -0.5, "0.31534"),
    (0.5, -0.6, "0.295418"),
    (0.5, -0.7, "0.277899"),
    (0.5, -0.8, "0.262372"),
    (0.5, -0.9, "0.248514"),
    (0.5, -1.0, "0.236068"),
)


def decimals(ref: str) -> int:
    """Number of digits after the decimal point in a stored reference."""
    return len(ref.split(".")[1]) if "." in ref else 0


def truncate_to(value: float, n_decimals: int) -> float:
    """Truncate toward zero to n decimals (references are truncated, not
    rounded, so the diff column compares like against like)."""
    scale = 10.0**n_decimals
    return int(value * scale) / scale
