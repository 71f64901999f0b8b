from hypothesis import settings

# Deterministic exploration so a fresh checkout reproduces the suite verdict
# bit-for-bit; bump max_examples locally when hunting for counterexamples.
settings.register_profile("deterministic", derandomize=True, max_examples=100)
settings.load_profile("deterministic")

# Deviation of the boundary from the axis-matched ellipse at r = 0.5 over the
# 2000-point sweep, and the first sweep angle attaining it; frozen from the
# first run of this implementation, cross-checked against the level-400
# truncation boundary, and printed by scripts/freeze_constants.py.
FROZEN_ELLIPSE_GAP = 0.09842444710573406
FROZEN_ELLIPSE_ARGMAX = -0.8042477193189872
