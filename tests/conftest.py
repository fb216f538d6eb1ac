"""Shared fixtures for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from harness import build_bundle
from repro.autograd.tensor import Tensor
from repro.data import make_dataset
from repro.pecan.config import PECANMode, PQLayerConfig


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for test data."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_images(rng) -> np.ndarray:
    """A small batch of 3-channel 8×8 images."""
    return rng.standard_normal((4, 3, 8, 8))


@pytest.fixture
def mnist_like():
    """A tiny synthetic MNIST-like (train, test) pair for integration tests."""
    return make_dataset("mnist", num_train=48, num_test=24, image_size=14)


@pytest.fixture
def cifar_like():
    """A tiny synthetic CIFAR-like (train, test) pair for integration tests."""
    return make_dataset("cifar10", num_train=48, num_test=24, image_size=16)


@pytest.fixture(scope="session")
def toy_bundle(tmp_path_factory):
    """Factory exporting the serving tests' toy PECAN-D bundle.

    ``toy_bundle(seed, name="toy")`` exports Conv(1→4, 3×3) → ReLU →
    MaxPool(2) → Linear(64→6) with 4 distance-mode prototypes, input shape
    (1, 10, 10) and every weight drawn from ``default_rng(seed)``, into a
    fresh directory, and returns the bundle's path.
    """
    def export(seed: int, name: str = "toy") -> Path:
        return build_bundle(tmp_path_factory.mktemp(name), seed=seed,
                            name=name, image=10, in_channels=1, prototypes=4,
                            hidden=(4,), classes=6)
    return export


@pytest.fixture
def angle_config() -> PQLayerConfig:
    return PQLayerConfig(num_prototypes=4, subvector_dim=None, mode=PECANMode.ANGLE,
                         temperature=1.0)


@pytest.fixture
def distance_config() -> PQLayerConfig:
    return PQLayerConfig(num_prototypes=4, subvector_dim=None, mode=PECANMode.DISTANCE,
                         temperature=0.5)


def make_tensor(rng: np.random.Generator, *shape, requires_grad: bool = True) -> Tensor:
    """Helper constructing a random tensor for gradient checks."""
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)
