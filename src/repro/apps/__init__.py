"""The paper's application-specific protocols (section 5) and demos; each
Plexus-side one is linked by :meth:`repro.core.AppExtension.link`."""

from .active_messages import AM_ETHERTYPE, AM_HEADER, ActiveMessages
from .forwarder import BackendService, PlexusForwarder
from .httpd import (
    SpinHttpClient,
    SpinHttpServer,
    UnixHttpServer,
    static_router,
    unix_http_get,
)
from .video import (
    DEFAULT_FRAME_BYTES,
    SpinVideoClient,
    SpinVideoServer,
    UnixVideoClient,
    UnixVideoServer,
    VIDEO_FPS,
)

__all__ = [
    "AM_ETHERTYPE",
    "AM_HEADER",
    "ActiveMessages",
    "BackendService",
    "DEFAULT_FRAME_BYTES",
    "PlexusForwarder",
    "SpinHttpClient",
    "SpinHttpServer",
    "SpinVideoClient",
    "SpinVideoServer",
    "UnixHttpServer",
    "UnixVideoClient",
    "UnixVideoServer",
    "VIDEO_FPS",
    "static_router",
    "unix_http_get",
]
