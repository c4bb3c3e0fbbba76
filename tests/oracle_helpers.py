"""Dense and scalar views of the oracle that only the tests read."""

import numpy as np

from dicke_overlap import oracle
from dicke_overlap.core import ModelParams
from dicke_overlap.numerics import log_sum_exp
from dicke_overlap.witness import spin_ladder


def collective_spin_matrices(j):
    """Dense J_x, J_y, J_z of the spin-j multiplet, on |j, m> in ascending m (J_y complex)."""
    jp = np.diag(spin_ladder(j), -1)
    jz = np.diag(np.arange(len(jp)) - j)
    return (jp + jp.T) / 2.0, (jp - jp.T) / 2.0j, jz


def build_hamiltonian(params: ModelParams, basis: oracle.DickeBasis):
    """Dense Dicke Hamiltonian of a one-block basis."""
    return oracle._hamiltonian(params, basis).toarray()


def ground_energy(params: ModelParams, cutoff):
    """Lowest energy of the even-parity symmetric sector at ``cutoff``."""
    return oracle._ground_pair(params, oracle.symmetric_basis(params.n_atoms, int(cutoff)))[0]


def split_log_partition(params: ModelParams, cutoff, beta):
    """ln Tr[exp(-beta H0) exp(-beta HI)] over all 2^N spin configurations."""
    log_terms, _ = oracle._split_log_terms(params, cutoff, beta)
    return float(log_sum_exp(log_terms))
