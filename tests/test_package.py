import modfold
from modfold import congruence, grouping, intmath, multistage, robust, simulate

MODULES = (congruence, grouping, intmath, multistage, robust, simulate)


def test_package_exports_every_module_list():
    assert modfold.__all__ == [n for m in MODULES for n in m.__all__]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(modfold, name) is getattr(module, name), name
