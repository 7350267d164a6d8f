"""The public surface: each library module's ``__all__`` is the one list of
its public names, and ``import cryptoherm`` exports exactly their union."""

import inspect
import pkgutil

import cryptoherm
from cryptoherm import dyson, errors, matrixio, metric, perturbation, spectra, stability

MODULES = (dyson, errors, matrixio, metric, perturbation, spectra, stability)


def test_package_exports_the_union_of_module_all_lists():
    # every module but the command-line front end is a library module
    found = {m.name for m in pkgutil.iter_modules(cryptoherm.__path__)}
    assert found == {m.__name__.rsplit(".", 1)[1] for m in MODULES} | {"cli"}
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(cryptoherm.__all__) == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(cryptoherm, name) is getattr(module, name), name
        defined = {
            name for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isclass(obj) or inspect.isfunction(obj))
            and obj.__module__ == module.__name__
        }
        assert defined <= set(module.__all__), (module.__name__, defined - set(module.__all__))
