"""Helpers shared by the test modules."""

from barnesg import backend, engine, modular


def clear_memos():
    """Empty every memo of the package, so that the next evaluation starts
    cold. test_engine.py's test_clear_memos_reaches_every_lru_cache fails
    when an lru_cache of the package is missing here."""
    for memo in (backend._tau_memo, backend._series, backend._k_row,
                 backend._power_sums, engine._b0_memo, engine._p_rounded,
                 engine._q_rounded,
                 modular.modular_forms_cached):
        memo.cache_clear()
    backend._zeta_rows.clear()
