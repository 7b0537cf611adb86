"""Unit tests for unit helpers and the error hierarchy."""

import pytest

from repro import errors
from repro.units import KiB, MiB, fmt_bw, fmt_time


class TestFormatting:
    def test_fmt_bw(self):
        assert fmt_bw(1.25e9) == "1.25 GB/s"
        assert fmt_bw(310e6) == "310.00 MB/s"
        assert fmt_bw(10) == "10.00 B/s"

    def test_fmt_time(self):
        assert fmt_time(2.5) == "2.500 s"
        assert fmt_time(0.0042) == "4.20 ms"
        assert fmt_time(3.3e-6) == "3.3 us"
        assert fmt_time(-1.0) == "-1.000 s"

    def test_unit_constants(self):
        assert KiB == 1024
        assert MiB == 1024 * KiB


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(errors.FileNotFound, errors.FSError)
        assert issubclass(errors.FSError, errors.ReproError)
        assert issubclass(errors.DeadlockError, errors.SimulationError)
        assert issubclass(errors.PLFSError, errors.ReproError)

    def test_errno_names_in_message(self):
        err = errors.FileNotFound("/some/path")
        assert "ENOENT" in str(err)
        assert "/some/path" in str(err)
        assert errors.FileExists("/x").errno_name == "EEXIST"
        assert errors.UnsupportedOperation("/x").errno_name == "ENOTSUP"

    def test_message_without_path(self):
        err = errors.InvalidArgument(message="bad flag combo")
        assert "bad flag combo" in str(err)

    @pytest.mark.parametrize("cls,name", [
        (errors.NotADirectory, "ENOTDIR"),
        (errors.IsADirectory, "EISDIR"),
        (errors.DirectoryNotEmpty, "ENOTEMPTY"),
        (errors.BadFileHandle, "EBADF"),
        (errors.PermissionDenied, "EACCES"),
        (errors.InvalidArgument, "EINVAL"),
    ])
    def test_all_errnos(self, cls, name):
        assert cls.errno_name == name
