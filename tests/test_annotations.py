import importlib
import inspect
import pkgutil
import typing

import pytest

import lyapcert


def _modules():
    return [importlib.import_module(info.name) for info in
            pkgutil.walk_packages(lyapcert.__path__, "lyapcert.")]


def _annotated(module):
    """Every function and class defined in module, and every method,
    classmethod, staticmethod and property getter of those classes."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for attr in vars(obj).values():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                elif isinstance(attr, property):
                    attr = attr.fget
                elif hasattr(attr, "func"):      # functools.cached_property
                    attr = attr.func
                if inspect.isfunction(attr):
                    yield attr


@pytest.mark.parametrize("module", _modules(), ids=lambda m: m.__name__)
def test_annotations_resolve(module):
    # with postponed evaluation a misspelt or undefined name in an
    # annotation goes unnoticed until something asks for the hints
    unresolved = []
    for obj in _annotated(module):
        try:
            typing.get_type_hints(obj)
        except Exception as exc:  # NameError, TypeError from a bad form
            unresolved.append(f"{obj.__qualname__}: {exc!r}")
    assert not unresolved
