"""Hamiltonian-path node labelings and Hamilton-cycle mappings
(Ch. 5 sorted MP machinery and Ch. 6 network partitioning)."""

from .base import Labeling
from .cycle import HamiltonCycleMapping, canonical_cycle
from .hypercube import (
    GrayCodeLabeling,
    gray_decode,
    gray_encode,
    hypercube_hamiltonian_cycle,
)
from .mesh import (
    BoustrophedonMeshLabeling,
    SpiralMeshLabeling,
    mesh_hamiltonian_cycle,
)
from .snake import (
    BoustrophedonMesh3DLabeling,
    SnakeLabeling,
    SnakeTorusLabeling,
    snake_digits,
    snake_index,
)

__all__ = [
    "BoustrophedonMesh3DLabeling",
    "BoustrophedonMeshLabeling",
    "GrayCodeLabeling",
    "HamiltonCycleMapping",
    "Labeling",
    "SnakeLabeling",
    "SnakeTorusLabeling",
    "SpiralMeshLabeling",
    "canonical_cycle",
    "gray_decode",
    "gray_encode",
    "hypercube_hamiltonian_cycle",
    "mesh_hamiltonian_cycle",
    "snake_digits",
    "snake_index",
]


def canonical_labeling(topology):
    """The canonical Hamiltonian labeling for a topology: boustrophedon
    for 2D meshes, reflected Gray code for hypercubes (both proven
    shortest-path-preserving, Lemmas 6.1/6.4), and the reflected
    mixed-radix snake for 3D meshes and k-ary n-cubes (empirically
    shortest-path-preserving on tested sizes).

    Memoized on the topology instance: labelings are pure functions of
    the (immutable) topology, and sharing one instance lets its routing
    caches — label table, neighbor orderings, ``route_step`` /
    ``route_path`` memos — warm once and serve every simulation run on
    that topology.
    """
    labeling = getattr(topology, "_canonical_labeling", None)
    if labeling is not None:
        return labeling

    from ..topology.hypercube import Hypercube
    from ..topology.karyncube import KAryNCube
    from ..topology.mesh import Mesh2D, Mesh3D

    if isinstance(topology, Mesh2D):
        labeling = BoustrophedonMeshLabeling(topology)
    elif isinstance(topology, Hypercube):
        labeling = GrayCodeLabeling(topology)
    elif isinstance(topology, Mesh3D):
        labeling = BoustrophedonMesh3DLabeling(topology)
    elif isinstance(topology, KAryNCube):
        labeling = SnakeTorusLabeling(topology)
    else:
        raise TypeError(f"no canonical labeling for {topology!r}")
    topology._canonical_labeling = labeling
    return labeling
