"""Suite-wide fixtures."""

import pytest


@pytest.fixture(scope="session")
def tc_model_path(tmp_path_factory):
    """One trained TC localiser (patch 16) shared by every test module.

    Training is seeded, so the model is the one each module used to
    train for itself; training it once saves the repeated setup cost.
    """
    from repro.workflow.tasks import ensure_tc_model

    return ensure_tc_model(None, 16, str(tmp_path_factory.mktemp("tc")))
