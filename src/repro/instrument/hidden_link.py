"""The hidden-link crawler trap (§2.2).

"Another related but inverse technique is to place a hidden link in the
HTML file that is not visible to human users, and see if the link is
fetched."  The anchor wraps a transparent 1×1 image; rendering browsers
fetch the *image* (normal embedded-object behaviour) but no human can see
or click the *link* — only link-following robots request the trap page.
The rewriter draws the page's number and appends the anchor to the body.
"""

from __future__ import annotations

TRAP_IMAGE_NAME = "transp_1x1.jpg"
#: The transparent image every trap wraps; one path for every page.
TRAP_IMAGE_PATH = f"/{TRAP_IMAGE_NAME}"


def trap_page_path(number: int) -> str:
    """The hidden page's path for a drawn ten-digit ``number``."""
    return f"/hidden_{number:010d}.html"
