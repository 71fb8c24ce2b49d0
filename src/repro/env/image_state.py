"""Image states: the paper's proposed CNN input representation.

Section 5: "this work could be extended by substituting those internal
states by a stack of receptor-ligand images and then use a convolutional
NN instead of a MLP" -- the fix for the state dimension growing with
atom count.

:func:`render_projections` rasterizes the two molecules into a fixed
stack of 2-D density images (three orthogonal projections per molecule,
six channels total) over a fixed frame covering the whole movement area,
so image size is independent of molecule size.  :class:`ImageStateEnv`
swaps these images in as the environment state.
"""

from __future__ import annotations

import numpy as np

from repro.env.wrappers import Wrapper

#: Axis pairs projected onto: (x,y), (x,z), (y,z).
_PROJECTIONS = ((0, 1), (0, 2), (1, 2))


def render_density(
    coords: np.ndarray,
    center: np.ndarray,
    extent: float,
    resolution: int,
) -> np.ndarray:
    """(3, res, res) stack of squashed 2-D occupancy histograms.

    Atoms outside the frame are clamped onto the border bin (the ligand
    can graze the escape sphere); ``tanh(count / 2)`` bounds channel
    values in [0, 1) with stable contrast regardless of atom count.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if extent <= 0:
        raise ValueError("extent must be positive")
    pts = np.asarray(coords, dtype=float) - np.asarray(center, dtype=float)
    # Map [-extent, extent] -> [0, resolution).
    frac = (pts / (2.0 * extent)) + 0.5
    bins = np.clip(
        (frac * resolution).astype(np.int64), 0, resolution - 1
    )
    out = np.zeros((3, resolution, resolution))
    for k, (a, b) in enumerate(_PROJECTIONS):
        np.add.at(out[k], (bins[:, a], bins[:, b]), 1.0)
    return np.tanh(out / 2.0)


class ImageStateEnv(Wrapper):
    """Replace the coordinate state with the 6-channel image stack.

    The frame is centered on the receptor and sized to the escape radius
    (plus margin), so every legal ligand position stays in view and the
    receptor channels are constants the CNN can cancel out.  States are
    returned *flat* (replay buffers store vectors); the CNN's leading
    :class:`~repro.nn.conv.Reshape` restores (6, res, res).
    """

    def __init__(self, env, *, resolution: int = 32, margin: float = 1.1):
        super().__init__(env)
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
        self.resolution = int(resolution)
        engine = env.engine
        self._center = engine.receptor.centroid()
        self._extent = margin * env.escape_radius
        self._receptor_channels = render_density(
            engine.receptor.coords, self._center, self._extent, resolution
        )

    @property
    def image_shape(self) -> tuple[int, int, int]:
        """(channels, height, width) for :func:`repro.nn.conv.build_cnn`."""
        return (6, self.resolution, self.resolution)

    @property
    def state_dim(self) -> int:
        """Flat state length."""
        return 6 * self.resolution * self.resolution

    def _image_state(self) -> np.ndarray:
        lig = render_density(
            self.env.engine.ligand_coords(),
            self._center,
            self._extent,
            self.resolution,
        )
        return np.concatenate(
            [self._receptor_channels, lig], axis=0
        ).reshape(-1)

    def reset(self) -> np.ndarray:
        self.env.reset()
        return self._image_state()

    def step(self, action: int):
        _state, reward, done, info = self.env.step(action)
        return self._image_state(), reward, done, info
