"""Exceptions shared by every layer."""


class CertificationError(AssertionError):
    """A certificate the computation carries failed its own check.

    It is an explicit raise, so python -O cannot switch it off; the CLI
    reports it with its own exit code.
    """
