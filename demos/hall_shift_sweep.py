"""The transverse shift at a flat interface, swept over angle and color.

When a spinning ray refracts, its outgoing line misses the plane of
incidence by a small sideways jump: conservation of the angular momentum
component along the interface normal forces it.  This script sweeps the
incidence angle for both helicities, then sweeps the color p to exhibit
the 1/p falloff that makes the effect a wavelength-scale correction.
"""

import math

import numpy as np

from spinray import OrbitInvariants, SweepSpec, run_sweep, scatter
from spinray import Interface, make_ray


def main():
    spec = SweepSpec(parameter="incidence_angle", start=5.0, stop=85.0, count=9,
                     n1=1.0, n2=1.5, theta1=math.radians(30.0), p=1.0, s=1.0)
    rows, _ = run_sweep(spec)

    print("air to glass (n2/n1 = 1.5), shift along the y axis by helicity:")
    print("  theta1    shift_y (s=+1)   shift_y (s=-1)   theta2")
    for row in rows:
        if row["s1"] > 0:
            partner = next(r for r in rows
                           if r["param"] == row["param"] and r["s1"] < 0)
            print(f"  {row['param']:5.1f}   {row['shift_y']:+.6e}   "
                  f"{partner['shift_y']:+.6e}   {row['theta2_deg']:7.3f}")
    print()

    iface = Interface(normal=(0, 0, 1), anchor=(0, 0, 0), n1=1.0, n2=1.5)
    theta1 = math.radians(30.0)
    ray1 = make_ray([0, 0, 0], [math.sin(theta1), 0, math.cos(theta1)])
    print("color sweep at theta1 = 30 degrees, s = +1:")
    print("    p       |shift|        p * |shift|")
    ps = np.geomspace(0.5, 8.0, 7)
    mags = []
    for p in ps:
        out = scatter(ray1, 1.0, iface, OrbitInvariants(p=float(p), s=1.0))
        mag = float(np.linalg.norm(out.shift))
        mags.append(mag)
        print(f"  {p:5.2f}   {mag:.6e}   {p * mag:.9f}")
    slope = float(np.polyfit(np.log(ps), np.log(mags), 1)[0])
    print(f"log-log slope = {slope:+.4f}  (shift is exactly proportional to 1/p)")
    print()

    out = scatter(ray1, 1.0, iface, OrbitInvariants(p=1.0, s=1.0))
    print("direct evaluation at the reference point:")
    print("  scatter map shift  =", out.shift)
    print()
    print("reflection by contrast is shift-free:")
    refl = scatter(ray1, 1.0, iface, OrbitInvariants(p=1.0, s=1.0), mode="reflect")
    print("  reflected shift    =", refl.shift, " spin flips to", refl.s2)


if __name__ == "__main__":
    main()
