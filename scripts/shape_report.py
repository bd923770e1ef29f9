#!/usr/bin/env python3
"""Print the per-segment shape chain of the network at full and toy scale:
input dims, final feature grid, reduced grid, and flatten size."""

from segdet import deepsegface as dsf
from segdet.segments import ALL_KINDS, default_layout, kind_name


def report(cfg: dsf.NetworkConfig) -> None:
    print(f"\n{cfg.scale} scale (channels={cfg.channels}, reduce_maps={cfg.reduce_maps}, fc={cfg.fc_units})")
    header = f"{'segment':8} {'input':>12} {'feature':>12} {'reduced':>10} {'flatten':>8}"
    print(header)
    print("-" * len(header))
    for kind in ALL_KINDS:
        h, w = cfg.layout.canonical[kind]
        gh, gw = cfg.feature_grid(kind)
        print(
            f"{kind_name(kind):8} {f'{cfg.channels}x{h}x{w}':>12} "
            f"{f'{cfg.feature_channels}x{gh}x{gw}':>12} "
            f"{f'{cfg.reduce_maps}x{gh}x{gw}':>10} {cfg.flatten_size(kind):>8}"
        )
    print(f"concatenated feature length: {cfg.concat_size}")


if __name__ == "__main__":
    for scale in ("full", "toy"):
        report(dsf.network_config(scale, default_layout(scale)))
