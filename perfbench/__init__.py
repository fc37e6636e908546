"""Training-step benchmark of the repro platform (see run.py)."""
