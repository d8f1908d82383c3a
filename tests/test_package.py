import ast
import types
from pathlib import Path

import memobs

# Step-policy constants that only modal.py may read, since every march grid is
# picked there; DEFAULT_HLAM_MAX is also ModalCache's default hlam_max.
STEP_POLICIES = {"DEFAULT_N_MIN", "NODAL_N_MIN", "NODAL_HLAM_MAX", "CONTROLLED_N_MIN"}


def test_export_list_names_every_public_name_once():
    # A name deleted from the package must leave __all__ too, and a public
    # name the package imports must be listed.
    public = {
        name
        for name, value in vars(memobs).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(memobs.__all__) - {"__version__"} == public
    assert len(memobs.__all__) == len(set(memobs.__all__))


def test_only_modal_reads_grid_helpers_and_step_policies():
    # No module but modal.py imports a private name of modal or a step
    # policy's step-count floor or nodal cap, so a change to how grids are
    # picked stays inside modal.py.
    imported = {}
    for path in sorted(Path(memobs.__file__).parent.glob("*.py")):
        if path.name == "modal.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "modal":
                names = [alias.name for alias in node.names]
                imported.setdefault(path.name, []).extend(names)
    assert imported  # the scan finds the package's modal imports
    leaks = {
        module: sorted(n for n in names if n.startswith("_") or n in STEP_POLICIES)
        for module, names in imported.items()
    }
    assert {module: names for module, names in leaks.items() if names} == {}
