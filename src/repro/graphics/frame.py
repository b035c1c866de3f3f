"""Frames and the objects they contain.

A :class:`Frame` is the unit flowing through the rendering pipeline: the
application produces it, the GPU renders it, the interposer copies it
back, the VNC proxy compresses and ships it, and the intelligent client
runs its CNN over it.  Frames carry:

* a list of :class:`SceneObject` instances — the randomly generated /
  placed objects that make recorded-replay input generation unreliable
  for 3D applications (Section 1);
* a small rasterized pixel buffer (a downsampled stand-in for the
  1920×1080 framebuffer) used by the CNN, by DeskBench's frame
  comparison, and by the tag-in-pixels tracking of hook6/hook8;
* bookkeeping: frame id, nominal resolution, complexity (GPU work units),
  and the Pictor tag when input tracking is enabled.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.sim.randomness import clamp

__all__ = ["Frame", "ObjectClass", "SceneObject", "TAG_PIXEL_COUNT"]

_frame_ids = itertools.count(1)

#: Number of pixels (in the rasterized buffer) used to embed a tracking tag.
TAG_PIXEL_COUNT = 4


class ObjectClass(enum.Enum):
    """Object categories the benchmark scenes generate.

    These are the classes the intelligent client's CNN is trained to
    recognize; they cover the six applications' needs (track edges and
    opponents for the racing game, units/buildings for the RTS, enemies
    and pickups for the shooter / MOBA, gaze targets and anatomy for the
    VR titles).
    """

    TRACK = "track"
    OPPONENT = "opponent"
    UNIT = "unit"
    BUILDING = "building"
    ENEMY = "enemy"
    PICKUP = "pickup"
    PROJECTILE = "projectile"
    TARGET = "target"
    ORGAN = "organ"
    UI_ELEMENT = "ui_element"


# Distinct base colours per class so the rasterized frames are learnable.
_CLASS_COLOURS: dict[ObjectClass, tuple[float, float, float]] = {
    ObjectClass.TRACK: (0.55, 0.55, 0.55),
    ObjectClass.OPPONENT: (0.95, 0.15, 0.15),
    ObjectClass.UNIT: (0.20, 0.55, 0.95),
    ObjectClass.BUILDING: (0.60, 0.40, 0.20),
    ObjectClass.ENEMY: (0.90, 0.10, 0.60),
    ObjectClass.PICKUP: (0.15, 0.90, 0.30),
    ObjectClass.PROJECTILE: (0.95, 0.85, 0.10),
    ObjectClass.TARGET: (0.10, 0.90, 0.90),
    ObjectClass.ORGAN: (0.85, 0.55, 0.65),
    ObjectClass.UI_ELEMENT: (0.95, 0.95, 0.95),
}


@functools.lru_cache(maxsize=8)
def _background_gradient(width: int) -> np.ndarray:
    """The faint background gradient that stands in for the 3D environment,
    so that frames are never trivially identical.  Shared by every frame of
    one raster width, hence read-only."""
    gradient = np.linspace(0.05, 0.15, width)
    gradient.flags.writeable = False
    return gradient


@dataclass
class SceneObject:
    """One object visible in a frame, in normalized [0, 1] screen coordinates."""

    object_class: ObjectClass
    x: float
    y: float
    size: float = 0.05
    velocity_x: float = 0.0
    velocity_y: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.x <= 1.0 or not 0.0 <= self.y <= 1.0:
            raise ValueError(f"object position must be in [0, 1]², got ({self.x}, {self.y})")
        if self.size <= 0:
            raise ValueError(f"object size must be positive, got {self.size}")

    def advanced(self, dt: float, shift: float = 0.0) -> "SceneObject":
        """The same object after ``dt`` seconds of motion, clamped to the
        screen, then shifted sideways by ``shift`` and clamped again."""
        x = clamp(self.x + self.velocity_x * dt, 0.0, 1.0)
        return SceneObject(
            object_class=self.object_class,
            x=clamp(x + shift, 0.0, 1.0),
            y=clamp(self.y + self.velocity_y * dt, 0.0, 1.0),
            size=self.size,
            velocity_x=self.velocity_x,
            velocity_y=self.velocity_y,
        )


@dataclass
class Frame:
    """One rendered frame travelling through the pipeline."""

    width: int = 1920
    height: int = 1080
    objects: list[SceneObject] = field(default_factory=list)
    complexity: float = 1.0              # GPU work units relative to an average frame
    scene_change: float = 0.1            # fraction of pixels changed vs. previous frame
    frame_id: int = field(default_factory=lambda: next(_frame_ids))
    tag: Optional[int] = None
    raster_width: int = 64
    raster_height: int = 36
    _pixels: Optional[np.ndarray] = field(default=None, repr=False)
    _saved_tag_pixels: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("frame resolution must be positive")
        if self.complexity <= 0:
            raise ValueError("frame complexity must be positive")
        if not 0.0 <= self.scene_change <= 1.0:
            raise ValueError("scene_change must be in [0, 1]")

    # -- size ---------------------------------------------------------------
    @property
    def raw_bytes(self) -> float:
        """Uncompressed framebuffer size (RGBA, 8 bits per channel)."""
        return float(self.width * self.height * 4)

    # -- rasterization --------------------------------------------------------
    @property
    def pixels(self) -> np.ndarray:
        """The downsampled pixel buffer (H × W × 3 floats in [0, 1])."""
        if self._pixels is None:
            self._pixels = self._rasterize()
        return self._pixels

    def _rasterize(self) -> np.ndarray:
        buffer = np.zeros((self.raster_height, self.raster_width, 3), dtype=np.float64)
        buffer[:, :, 2] = _background_gradient(self.raster_width)[np.newaxis, :]
        for obj in self.objects:
            self._draw_object(buffer, obj)
        return buffer

    def _draw_object(self, buffer: np.ndarray, obj: SceneObject) -> None:
        colour = _CLASS_COLOURS[obj.object_class]
        cx = int(obj.x * (self.raster_width - 1))
        cy = int(obj.y * (self.raster_height - 1))
        radius = max(1, int(obj.size * self.raster_width / 2))
        y0, y1 = max(0, cy - radius), min(self.raster_height, cy + radius + 1)
        x0, x1 = max(0, cx - radius), min(self.raster_width, cx + radius + 1)
        buffer[y0:y1, x0:x1, :] = colour

    # -- tag embedding (hook6 / hook8) -------------------------------------------
    def embed_tag(self, tag: int) -> None:
        """Embed a tracking tag into the first pixels of the buffer.

        Mirrors hook6 in the paper: the original pixel values are saved (to
        shared memory in the real system) so the server proxy can restore
        them after extracting the tag at hook8.
        """
        if tag < 0:
            raise ValueError(f"tag must be non-negative, got {tag}")
        pixels = self.pixels
        self._saved_tag_pixels = pixels[0, :TAG_PIXEL_COUNT, :].copy()
        encoded = np.array([
            (tag >> (8 * i)) & 0xFF for i in range(TAG_PIXEL_COUNT)
        ], dtype=np.float64) / 255.0
        pixels[0, :TAG_PIXEL_COUNT, 0] = encoded
        self.tag = tag

    def extract_tag(self) -> Optional[int]:
        """Read the embedded tag back out of the pixel buffer."""
        if self._saved_tag_pixels is None:
            return None
        values = np.rint(self.pixels[0, :TAG_PIXEL_COUNT, 0] * 255.0).astype(int)
        tag = 0
        for i, value in enumerate(values):
            tag |= int(value) << (8 * i)
        return tag

    def restore_tag_pixels(self) -> None:
        """Undo :meth:`embed_tag`, restoring the saved pixels (hook8)."""
        if self._saved_tag_pixels is None:
            return
        self.pixels[0, :TAG_PIXEL_COUNT, :] = self._saved_tag_pixels
        self._saved_tag_pixels = None

    # -- comparison (DeskBench-style) -----------------------------------------------
    def pixel_difference(self, other: "Frame") -> float:
        """Mean absolute pixel difference against another frame, in [0, 1]."""
        if (other.raster_width, other.raster_height) != (self.raster_width,
                                                         self.raster_height):
            raise ValueError("cannot compare frames with different raster sizes")
        return float(np.mean(np.abs(self.pixels - other.pixels)))

    def objects_of_class(self, object_class: ObjectClass) -> list[SceneObject]:
        return [obj for obj in self.objects if obj.object_class is object_class]

    @staticmethod
    def from_objects(objects: Iterable[SceneObject], **kwargs) -> "Frame":
        return Frame(objects=list(objects), **kwargs)
