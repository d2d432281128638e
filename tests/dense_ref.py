"""Brute-force dense tensor reference, independent of the diagram engine.

Tensors are (array, index-name-list) pairs; every operation loops over
explicit assignments.  Deliberately slow and simple.
"""

import itertools

import numpy as np


def entries(names):
    return itertools.product((0, 1), repeat=len(names))


def dense_slice(arr, names, x, c):
    if x not in names:
        return arr, list(names)
    ax = names.index(x)
    return np.take(arr, c, axis=ax), [n for n in names if n != x]


def dense_add(a, anames, b, bnames):
    """Entrywise sum with broadcasting over the union of the index sets."""
    union = list(dict.fromkeys(list(anames) + list(bnames)))
    out = np.zeros((2,) * len(union), dtype=complex)
    for assign in entries(union):
        env = dict(zip(union, assign))
        va = a[tuple(env[n] for n in anames)] if len(anames) else complex(a)
        vb = b[tuple(env[n] for n in bnames)] if len(bnames) else complex(b)
        out[assign] = va + vb
    return out, union


def dense_contract(a, anames, b, bnames, shared):
    """Triple loop: open assignments x shared assignments x product."""
    shared = list(shared)
    union = list(dict.fromkeys(list(anames) + list(bnames)))
    keep = [n for n in union if n not in shared]
    out = np.zeros((2,) * len(keep), dtype=complex)
    for assign in entries(keep):
        env = dict(zip(keep, assign))
        total = 0.0 + 0.0j
        for sassign in entries(shared):
            env.update(zip(shared, sassign))
            va = a[tuple(env[n] for n in anames)] if len(anames) else complex(a)
            vb = b[tuple(env[n] for n in bnames)] if len(bnames) else complex(b)
            total += va * vb
        out[assign] = total
    return out, keep


def dense_norm(arr):
    return float(np.sum(np.abs(np.asarray(arr)) ** 2))


def record_masses(mgr, t, m_set):
    """Mass of every assignment of ``m_set``, read off ``mgr.to_dense(t)``.

    Keys are the assignment's bits, highest-ranked index first; an index of
    ``m_set`` that is not a leg of ``t`` does not split the mass.
    """
    arr, names = mgr.to_dense(t), list(t.indices)
    m_list = sorted(m_set, key=lambda i: -i.rank)
    out = {}
    for bits in entries(m_list):
        env = dict(zip(m_list, bits))
        sub = arr[tuple(env.get(n, slice(None)) for n in names)]
        out["".join(map(str, bits))] = dense_norm(sub)
    return out
