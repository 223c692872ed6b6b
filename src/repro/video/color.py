"""Color-space conversions.

Mean-shift segmentation (EDISON) operates in the perceptually uniform
CIE-LUV space, where Euclidean color distance approximates perceived
difference.  Conversions follow the standard sRGB -> XYZ -> LUV chain with
the D65 white point.
"""

from __future__ import annotations

import numpy as np

# sRGB -> XYZ linear transform (D65).
_RGB_TO_XYZ = np.array(
    [
        [0.412453, 0.357580, 0.180423],
        [0.212671, 0.715160, 0.072169],
        [0.019334, 0.119193, 0.950227],
    ]
)
_WHITE = _RGB_TO_XYZ @ np.ones(3)
_UN = 4.0 * _WHITE[0] / (_WHITE[0] + 15.0 * _WHITE[1] + 3.0 * _WHITE[2])
_VN = 9.0 * _WHITE[1] / (_WHITE[0] + 15.0 * _WHITE[1] + 3.0 * _WHITE[2])


def rgb_to_luv(image: np.ndarray) -> np.ndarray:
    """Convert an ``(..., 3)`` uint8/float RGB image to CIE-LUV (float64).

    Input values are interpreted on the ``[0, 255]`` scale.  L* lies in
    ``[0, 100]``; u* and v* are roughly ``[-134, 220]``.
    """
    rgb = np.asarray(image, dtype=np.float64) / 255.0
    # sRGB gamma expansion.
    linear = np.where(rgb <= 0.04045, rgb / 12.92,
                      ((rgb + 0.055) / 1.055) ** 2.4)
    xyz = linear @ _RGB_TO_XYZ.T
    x, y, z = xyz[..., 0], xyz[..., 1], xyz[..., 2]
    denom = x + 15.0 * y + 3.0 * z
    with np.errstate(divide="ignore", invalid="ignore"):
        u_prime = np.where(denom > 0, 4.0 * x / denom, _UN)
        v_prime = np.where(denom > 0, 9.0 * y / denom, _VN)
    y_rel = y / _WHITE[1]
    lstar = np.where(y_rel > (6.0 / 29.0) ** 3,
                     116.0 * np.cbrt(y_rel) - 16.0,
                     (29.0 / 3.0) ** 3 * y_rel)
    ustar = 13.0 * lstar * (u_prime - _UN)
    vstar = 13.0 * lstar * (v_prime - _VN)
    return np.stack([lstar, ustar, vstar], axis=-1)
