"""The package exports: public names resolve to their home modules."""

import importlib

import pytest

import dp2fp

# The public names, by home module.
HOMES = {
    "confinement": {"ConfinementReport", "ConfinementStatus", "ScanRecord",
                    "ScanResult", "SingularLift", "agr_scan", "confine",
                    "sample_images", "verify_confinement_samples"},
    "epsfield": {"EpsPoly", "EpsRational", "degree_limit"},
    "errors": {"Dp2Error"},
    "fpdynamics": {"detect_period", "dp2_fp_pattern", "iterate_dp2_residues"},
    "maps": {"DP2Map", "DP2Params", "QRTMap", "QRTParams", "build_dp2_params",
             "dp2_scalar_residual", "dp2_step", "qrt_step"},
    "mapexpr": {"CustomMap", "parse_map_expr", "print_map_expr"},
    "padic": {"PLUS_INFINITY", "FpElem", "FpProj", "is_odd_prime",
              "parse_rational", "pnorm", "reduce_mod", "reduce_proj", "vp"},
    "tau": {"TauParams", "laguerre", "rational_u", "reduced_solution",
            "tau_det", "taucond"},
}
HOME_OF = {name: module for module, names in HOMES.items() for name in names}


def test_all_lists_every_public_name_once():
    assert len(dp2fp.__all__) == len(set(dp2fp.__all__))
    assert set(dp2fp.__all__) == set(HOME_OF)


def test_each_name_is_its_home_module_object():
    for name, module in HOME_OF.items():
        home = importlib.import_module("dp2fp." + module)
        value = getattr(dp2fp, name)
        assert value is getattr(home, name), name
        # Classes and functions say where they are defined.
        assert getattr(value, "__module__", home.__name__) == home.__name__


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from dp2fp import *", namespace)
    for name in dp2fp.__all__:
        assert namespace[name] is getattr(dp2fp, name)
    listed = dir(dp2fp)
    assert set(dp2fp.__all__) <= set(listed)
    assert {"cli", "epsfield", "__version__"} <= set(listed)


def test_submodules_resolve_and_unknown_names_raise():
    assert dp2fp.epsfield is importlib.import_module("dp2fp.epsfield")
    assert dp2fp.cli.main is importlib.import_module("dp2fp.cli").main
    with pytest.raises(AttributeError, match="no_such_name"):
        dp2fp.no_such_name
    assert not hasattr(dp2fp, "MAX_TAU_N")
