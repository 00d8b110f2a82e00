"""npz-backed persistence for in-memory datasets (the paper's "Saving
npy file done" feature-generation step).

:func:`write_npz` / :func:`read_npz` are the current API; they round-trip
a :class:`~repro.data.dataset.Dataset` (including cached neighbor tables)
through one compressed npz file, using the public
:attr:`~repro.data.dataset.Dataset.cached_neighbors` accessor.

Readers usually go through :func:`repro.data.open_source` (which reads
``.npz`` via :func:`read_npz`); corpora that should not live in RAM
belong in a :class:`~repro.data.framestore.ShardedFrameStore`.
"""

from __future__ import annotations

import os

import numpy as np

from ..md.cell import Cell
from .dataset import Dataset, NeighborArrays


def write_npz(dataset: Dataset, path: str) -> None:
    """Serialize a dataset (and cached neighbor tables, if any) to ``path``."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    payload = dict(
        name=np.array(dataset.name),
        positions=dataset.positions,
        energies=dataset.energies,
        forces=dataset.forces,
        species=dataset.species,
        cell_lengths=dataset.cell.lengths,
        temperatures=dataset.temperatures,
    )
    nb = dataset.cached_neighbors
    if nb is not None:
        payload.update(
            nb_idx=nb.idx, nb_shift=nb.shift, nb_mask=nb.mask, nb_rcut=np.array(nb.rcut)
        )
    np.savez_compressed(path, **payload)


def read_npz(path: str) -> Dataset:
    """Load a dataset written by :func:`write_npz`."""
    with np.load(path, allow_pickle=False) as z:
        ds = Dataset(
            name=str(z["name"]),
            positions=z["positions"],
            energies=z["energies"],
            forces=z["forces"],
            species=z["species"],
            cell=Cell(z["cell_lengths"]),
            temperatures=z["temperatures"],
        )
        if "nb_idx" in z:
            ds.cached_neighbors = NeighborArrays(
                idx=z["nb_idx"],
                shift=z["nb_shift"],
                mask=z["nb_mask"],
                rcut=float(z["nb_rcut"]),
            )
    return ds

