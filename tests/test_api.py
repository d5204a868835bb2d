"""The package's public names: exactly the ones the README documents."""

import ast
from pathlib import Path

import svbell

PUBLIC = {
    "chain": ["BellBreakdown", "bell_fixed_N", "bell_sv", "make_chain", "rhs_sv_asymptotic"],
    "singlet": ["JointCountDistribution", "MAX_PHOTON_NUMBER", "joint_distribution", "mean_abs_difference"],
    "sv": ["CapExceededError", "SVSpec", "lambda_sq", "sv_mixture"],
    "loss": ["binomial_thin"],
    "lhv": ["lhv_minimum"],
    "oracle": ["mc_thin", "oracle_joint_distribution"],
}


def test_all_is_exactly_the_public_names():
    names = [name for module_names in PUBLIC.values() for name in module_names]
    assert len(names) == 17
    assert sorted(svbell.__all__) == sorted(names)
    for module, module_names in PUBLIC.items():
        for name in module_names:
            assert getattr(svbell, name) is getattr(getattr(svbell, module), name)


def _readme_library_section():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("## Library", 1)[1].split("\n## ", 1)[0]


def test_readme_library_section_documents_every_public_name():
    library = _readme_library_section()
    for name in svbell.__all__:
        assert f"`{name}`" in library, name


def test_readme_library_example_runs_and_its_component_sum_is_the_bell_value():
    block = _readme_library_section().split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    sums = []
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            value = eval(source, namespace)
            if source.startswith("sum("):
                sums.append(value)
        else:
            exec(source, namespace)
    assert len(sums) == 1
    assert abs(sums[0] - namespace["result"].bell) <= 1e-12
