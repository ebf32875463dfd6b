"""Server-side page instrumentation (§2 of the paper).

Every HTML page served to a client is dynamically rewritten to carry four
probes, each registered per client IP so the proxy can recognise (and
answer) the follow-up fetches they provoke:

* a **mouse-movement beacon**: an external JavaScript file with one real
  event-handler function that fetches a fake image URL carrying a random
  128-bit key ``k``, plus ``m`` look-alike decoy functions fetching wrong
  keys (:mod:`repro.instrument.js_beacon`, §2.1);
* an **empty CSS file** with a random name — standard browsers fetch
  stylesheets, goal-oriented robots don't (:mod:`repro.instrument.css_beacon`,
  §2.2);
* a **hidden link** wrapped around a transparent 1×1 image — invisible to
  humans, followed by blind crawlers (:mod:`repro.instrument.hidden_link`);
* a **User-Agent echo probe**: inline JavaScript that writes a stylesheet
  URL containing ``navigator.userAgent``, proving JavaScript execution and
  exposing forged User-Agent headers (:mod:`repro.instrument.ua_probe`).

:class:`~repro.instrument.rewriter.PageInstrumenter` applies all of them to
an HTML body; :class:`~repro.instrument.keys.InstrumentationRegistry` is
the per-IP table of outstanding probes ("the server ... records the tuple
<foo.html, k> in a table indexed by the client's IP address").
"""

from repro.instrument.css_beacon import make_css_beacon
from repro.instrument.hidden_link import TRAP_IMAGE_NAME, make_hidden_link
from repro.instrument.js_beacon import (
    BeaconScript,
    build_beacon_script,
    extract_all_script_urls,
    find_handler_fetch_url,
)
from repro.instrument.keys import (
    BeaconHit,
    BeaconKind,
    InstrumentationRegistry,
    RegisteredProbe,
)
from repro.instrument.rewriter import (
    InstrumentConfig,
    InstrumentedPage,
    PageInstrumenter,
    beacon_response,
)
from repro.instrument.ua_probe import (
    interpret_ua_probe,
    make_ua_probe_script,
    sanitize_user_agent,
)

__all__ = [
    "BeaconHit",
    "BeaconKind",
    "BeaconScript",
    "InstrumentConfig",
    "InstrumentationRegistry",
    "InstrumentedPage",
    "PageInstrumenter",
    "RegisteredProbe",
    "TRAP_IMAGE_NAME",
    "beacon_response",
    "build_beacon_script",
    "extract_all_script_urls",
    "find_handler_fetch_url",
    "interpret_ua_probe",
    "make_css_beacon",
    "make_hidden_link",
    "make_ua_probe_script",
    "sanitize_user_agent",
]
