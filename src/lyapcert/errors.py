"""The two kinds of failure, which the CLI maps to its status and exit code.

InputError is bad input: a spec, flag, candidate or file that the commands
cannot serve.  NumericalError is a computation that failed on valid input:
a projection that does not converge or check, a malformed SDP, a
simulator state that leaves the set, a certificate that fails its
recheck, or LP or SOS data past the float range (its detail ends in
OUT_OF_FLOAT_RANGE).  Every exception class of the package derives from
one of them.
"""


class InputError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass


# why a float conversion or a solver's non-finite data fails
OUT_OF_FLOAT_RANGE = "a coefficient exceeds the float range"
