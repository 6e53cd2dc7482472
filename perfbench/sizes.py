"""Workload sizes, in one place so that a resize is one reviewed diff.

They are chosen so that one workload process takes a few seconds on a
2-core host and the spread of the medians stays inside the bounds in
``BENCHMARK.json``.
"""

#: The paper's pipeline: ESM, daily files, COMPSs DAG, Ophidia, CNN, tracker.
LISTING1 = {"years": 3, "n_days": 30, "n_lat": 48, "n_lon": 72}

#: The pre-trained CNN handed to ``listing1`` (trained once per invocation,
#: with the recipe of ``tasks.ensure_tc_model``).  With a lighter recipe
#: the trained weights alone moved listing1's run time by 13% between seeds.
CNN = {"samples": 700, "epochs": (6, 4)}

#: One archived year; heat and cold indices at eight thresholds (2..9 K).
REANALYSIS = {"n_days": 365, "n_lat": 48, "n_lon": 72, "nfrag": 4,
              "thresholds": list(range(2, 10)), "min_length_days": 6}

#: 1 + supersteps * (width + 1) trivial tasks.
TASK_STORM = {"supersteps": 600, "width": 8}

#: Open-loop service load: *jobs* at *rate* per second after a warm-up;
#: every *esm_every*-th job is a 2-core ESM member.
SERVICE = {
    "jobs": 120, "rate": 20.0, "warmup": 5, "esm_every": 10,
    "esm": {"n_days": 4, "n_lat": 12, "n_lon": 18},
    "analytics": {"n_days": 16, "n_lat": 12, "n_lon": 18, "min_length_days": 3},
}
