"""The execution backend name recorded in run environments.

Every plan evaluates in the calling process; callers that record the
backend alongside their measurements read it from :func:`default_backend_name`.
"""


def default_backend_name() -> str:
    """The name of the execution backend: always ``"serial"``."""
    return "serial"
