import pytest

from impshap.data import example_tables, led_population, random_joint
from impshap.info_theory import joint_from_samples


@pytest.fixture(scope="session")
def tables():
    return example_tables()


@pytest.fixture(scope="session")
def led_ds():
    return led_population()


@pytest.fixture(scope="session")
def led_joint(led_ds):
    return joint_from_samples(led_ds)


@pytest.fixture(scope="session")
def random_joints():
    return [random_joint(seed) for seed in range(10)]
