"""Tests for synthetic dataset generators."""

import hashlib

import numpy as np
import pytest

from repro.data import (
    DATASET_BUILDERS,
    make_blob_dataset,
    make_dataset,
    make_synthetic_cifar10,
    make_synthetic_har,
    make_synthetic_imagenet,
    make_synthetic_mnist,
)
from repro.nn.models import make_logistic_regression


class TestBlobDataset:
    def test_shape_and_classes(self):
        ds = make_blob_dataset(50, 5, channels=2, image_size=6, rng=0)
        assert ds.x.shape == (50, 2, 6, 6)
        assert ds.num_classes == 5
        assert set(np.unique(ds.y)) <= set(range(5))

    def test_deterministic(self):
        a = make_blob_dataset(20, 3, rng=42)
        b = make_blob_dataset(20, 3, rng=42)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = make_blob_dataset(20, 3, rng=1)
        b = make_blob_dataset(20, 3, rng=2)
        assert not np.array_equal(a.x, b.x)

    def test_noise_controls_separability(self):
        """Same-class samples are closer together at low noise."""
        def intra_class_spread(noise):
            ds = make_blob_dataset(100, 2, noise=noise, rng=5)
            spread = 0.0
            for c in range(2):
                xs = ds.x[ds.y == c].reshape(-1, ds.num_features)
                spread += xs.std(axis=0).mean()
            return spread

        assert intra_class_spread(0.1) < intra_class_spread(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_blob_dataset(0, 3)
        with pytest.raises(ValueError):
            make_blob_dataset(10, 0)


class TestNamedDatasets:
    @pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
    def test_builders_produce_data(self, name):
        ds = make_dataset(name, 40, rng=0)
        assert len(ds) == 40
        assert ds.num_classes >= 2

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            make_dataset("svhn", 10)

    def test_mnist_is_single_channel(self):
        ds = make_synthetic_mnist(10, rng=0)
        assert ds.x.shape[1] == 1
        assert ds.num_classes == 10

    def test_cifar_is_rgb(self):
        ds = make_synthetic_cifar10(10, rng=0)
        assert ds.x.shape[1] == 3

    def test_imagenet_has_more_classes(self):
        ds = make_synthetic_imagenet(10, rng=0)
        assert ds.num_classes == 20

    def test_har_is_flat_six_classes(self):
        ds = make_synthetic_har(30, rng=0)
        assert ds.x.ndim == 2
        assert ds.num_classes == 6


class TestLearnability:
    """The stand-ins must be learnable, or no experiment means anything."""

    def test_mnist_linear_separability(self):
        ds = make_synthetic_mnist(400, rng=3).flattened()
        model = make_logistic_regression(ds.num_features, 10, rng=1)
        params = model.get_flat_params()
        rng = np.random.default_rng(0)
        for _ in range(150):
            idx = rng.integers(0, len(ds), 32)
            grad, _ = model.gradient(ds.x[idx], ds.y[idx], params)
            params -= 0.05 * grad
        model.set_flat_params(params)
        assert model.accuracy(ds.x, ds.y) > 0.8

    def test_har_learnable(self):
        ds = make_synthetic_har(400, rng=3)
        model = make_logistic_regression(ds.num_features, 6, rng=1)
        params = model.get_flat_params()
        rng = np.random.default_rng(0)
        for _ in range(150):
            idx = rng.integers(0, len(ds), 32)
            grad, _ = model.gradient(ds.x[idx], ds.y[idx], params)
            params -= 0.05 * grad
        model.set_flat_params(params)
        assert model.accuracy(ds.x, ds.y) > 0.7


def _digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestPinnedOutput:
    """The generators' exact bytes, so a rewrite must be bit-identical.

    Every experiment and golden trajectory starts from these arrays; a
    change in RNG draw order or arithmetic shows up here first.
    """

    @pytest.mark.parametrize(
        "builder, seed, x_digest, y_digest",
        [
            (
                make_synthetic_mnist,
                0,
                "84ba40a8242db45ee6134bba0573d3be964bd9032a51cefb9ad679c61ad75db1",
                "ddba588a86ea2f7821f9950ced4396ac1382164bec3db6c415003ed88d57610b",
            ),
            (
                make_synthetic_mnist,
                12345,
                "8ef0331a0fa97a58eed20ede07457ed5db61194ea3420ea747e0937275073cf7",
                "e95e01805726e7143938d504f0f5d8c17dd86715a04bb5342d6636e7c1977c64",
            ),
            (
                make_synthetic_cifar10,
                0,
                "252f1def28a9ab019289568bae7f72e5ff50dd75bf1bf373755ee6b55807bc17",
                "81a1eccba006cad9a063dad7db2dd2ff65107b5784a2a139e0b67a0d6b2bd6d7",
            ),
            (
                make_synthetic_cifar10,
                12345,
                "55f5a2a8c99e42401df4e4cad2482dc54564b9149059226428f40923c8e0ccca",
                "80969324d10a8c58afb4958861841ac5871a3fc6d29c85ce0593caa484585fad",
            ),
            (
                make_synthetic_imagenet,
                0,
                "ed00b1d9785470e775acd66b3fc1d7679d331aad0c75c9c24990ca27412381f1",
                "5ef702a8be47a6e0ac4db90f223b5b1766716a4e329f5ac63414a79652036993",
            ),
            (
                make_synthetic_imagenet,
                12345,
                "535841c9ab16425137a310e5f5bb8abc965cae49508344d3ca1c68b6d38090ba",
                "a3c540713891c785dd71f7063022bfef146949755602a2bd0e2895f224115474",
            ),
        ],
    )
    def test_named_builders(self, builder, seed, x_digest, y_digest):
        ds = builder(500, rng=seed)
        assert ds.x.dtype == np.float64 and ds.y.dtype == np.int64
        assert _digest(ds.x) == x_digest
        assert _digest(ds.y) == y_digest

    def test_blob_without_jitter(self):
        ds = make_blob_dataset(
            300, 4, channels=2, image_size=6, noise=0.8, scale_spread=0.25,
            rng=7,
        )
        assert ds.x.shape == (300, 2, 6, 6)
        assert _digest(ds.x) == (
            "50b62971f0ab28469b53e945a1c6743aded5824cda0cffae45fa4f3d1ad87fa3"
        )
        assert _digest(ds.y) == (
            "01a8f6d7a48a9a03ac33cc0c9af93b538e1de6307fb01a834bf5784822d2b9aa"
        )
