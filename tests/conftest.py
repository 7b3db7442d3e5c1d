import pytest

from flsim import layout_for, load_scenario


@pytest.fixture(scope="session")
def scenario1():
    return load_scenario("scenario1")


@pytest.fixture(scope="session")
def scenario2():
    return load_scenario("scenario2")


@pytest.fixture(scope="session")
def s1_layout(scenario1):
    return layout_for(scenario1.env, scenario1.sonar)
