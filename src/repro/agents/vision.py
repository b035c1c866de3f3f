"""Object detection: the computer-vision step of the intelligent client.

The :class:`ObjectDetector` wraps the convolutional network with the
frame-level plumbing the client needs: building labelled training data
from a recorded session, training, and turning a raw frame into a list of
detected objects (class, position, confidence) plus the flat feature
vector the LSTM consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.agents.cnn import ConvNet, ConvNetConfig
from repro.agents.recorder import RecordedSession
from repro.graphics.frame import Frame, ObjectClass
from repro.sim.randomness import clamp

__all__ = ["DetectedObject", "ObjectDetector"]


@dataclass(frozen=True)
class DetectedObject:
    """One recognized object in a frame (normalized coordinates)."""

    object_class: ObjectClass
    x: float
    y: float
    confidence: float


class ObjectDetector:
    """CNN-based recognition of the input-relevant objects in a frame."""

    def __init__(self, net: Optional[ConvNet] = None,
                 presence_threshold: float = 0.5):
        self.net = net or ConvNet(ConvNetConfig())
        if not 0.0 < presence_threshold < 1.0:
            raise ValueError("presence_threshold must be in (0, 1)")
        self.presence_threshold = presence_threshold
        self.classes = list(ObjectClass)

    # -- training -------------------------------------------------------------
    def train(self, session: RecordedSession,
              epochs: Optional[int] = None) -> float:
        """Train the CNN on a recorded session's (frame, labels) pairs."""
        if len(session) == 0:
            raise ValueError("cannot train on an empty recorded session")
        images = np.stack([step.frame.pixels for step in session.steps])
        targets = session.feature_matrix()
        return self.net.train(images, targets, epochs=epochs)

    # -- inference ---------------------------------------------------------------
    def features(self, frame: Frame) -> np.ndarray:
        """The raw per-class descriptor vector for ``frame``."""
        return self.net.predict(frame.pixels)

    def detect(self, frame: Frame) -> list[DetectedObject]:
        """Detected objects above the presence threshold."""
        raw = self.features(frame)
        detections = []
        for index, object_class in enumerate(self.classes):
            presence = float(raw[index * 3])
            if presence < self.presence_threshold:
                continue
            detections.append(DetectedObject(
                object_class=object_class,
                x=clamp(raw[index * 3 + 1], 0.0, 1.0),
                y=clamp(raw[index * 3 + 2], 0.0, 1.0),
                confidence=min(presence, 1.0),
            ))
        return detections

    # -- evaluation ----------------------------------------------------------------
    def detection_error(self, session: RecordedSession) -> float:
        """Mean absolute error of the descriptors over a recorded session."""
        if len(session) == 0:
            raise ValueError("cannot evaluate on an empty recorded session")
        images = np.stack([step.frame.pixels for step in session.steps])
        targets = session.feature_matrix()
        predictions = self.net.forward(images)
        return float(np.mean(np.abs(predictions - targets)))
