"""SVG visualisation (no external dependencies)."""

from .svg import REGION_COLORS, region_map_svg, tree_svg

__all__ = ["tree_svg", "region_map_svg", "REGION_COLORS"]
