"""The empty-CSS browser probe (§2.2).

"We can dynamically embed an empty CSS file for each HTML page and observe
if the CSS file gets requested."  The file name is a fresh random number
per page/client, e.g. ``http://www.example.com/2031464296.css``, so a
cached or shared fetch can never be mistaken for this client's.  The
rewriter draws the number and links the file from the page head.
"""

from __future__ import annotations


def css_beacon_path(number: int) -> str:
    """The beacon's path for a drawn ten-digit ``number``."""
    return f"/{number:010d}.css"
