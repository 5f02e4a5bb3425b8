import importlib
import inspect
import pkgutil

import lyapcert
from lyapcert.errors import InputError, NumericalError


def test_every_exception_class_is_one_of_the_two_kinds():
    # the CLI maps exactly these two kinds to a status line and exit code;
    # a class of another lineage would end a run in a traceback
    defined = {}
    for info in pkgutil.iter_modules(lyapcert.__path__):
        module = importlib.import_module(f"lyapcert.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) \
                    and cls.__module__ == module.__name__:
                defined[f"{info.name}.{name}"] = cls
    assert {"errors.InputError", "errors.NumericalError", "cli.SpecFileError",
            "poly.PolynomialParseError"} <= defined.keys()
    for name, cls in defined.items():
        assert issubclass(cls, (InputError, NumericalError)), name
