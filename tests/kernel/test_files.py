"""File-descriptor layer: tables, sockets, reservation, dup2."""

import pytest

from repro.android.kernel.files import (
    DeviceFile,
    FDTable,
    FdError,
    OpenFile,
    Pipe,
    UnixSocket,
)


class TestFdTable:
    def test_lowest_free_allocation(self):
        table = FDTable()
        assert table.install(OpenFile("/a")) == 0
        assert table.install(OpenFile("/b")) == 1
        table.close(0)
        assert table.install(OpenFile("/c")) == 0

    def test_explicit_fd(self):
        table = FDTable()
        assert table.install(OpenFile("/a"), fd=7) == 7
        with pytest.raises(FdError):
            table.install(OpenFile("/b"), fd=7)

    def test_reserved_fds_are_skipped(self):
        table = FDTable()
        table.reserve(0, "socket")
        table.reserve(1, "socket")
        assert table.install(OpenFile("/a")) == 2
        assert table.reserved() == {0: "socket", 1: "socket"}

    def test_cannot_reserve_in_use_fd(self):
        table = FDTable()
        table.install(OpenFile("/a"), fd=3)
        with pytest.raises(FdError):
            table.reserve(3, "x")

    def test_dup2_clears_reservation(self):
        table = FDTable()
        table.reserve(5, "socket")
        sock, _ = UnixSocket.pair()
        assert table.dup2(sock, 5) == 5
        assert table.get(5) is sock
        assert 5 not in table.reserved()

    def test_close_missing_rejected(self):
        with pytest.raises(FdError):
            FDTable().close(9)

    def test_find_by_predicate(self):
        table = FDTable()
        table.install(OpenFile("/a"))
        sock, _ = UnixSocket.pair()
        table.install(sock)
        hits = table.find(lambda o: isinstance(o, UnixSocket))
        assert len(hits) == 1
        assert hits[0].obj is sock


class TestUnixSocket:
    def test_pair_delivers_both_ways(self):
        service, client = UnixSocket.pair("events")
        service.send(b"hello")
        assert client.recv() == b"hello"
        client.send(b"yo")
        assert service.recv() == b"yo"
        assert client.recv() is None

    def test_closed_socket_refuses_send(self):
        service, client = UnixSocket.pair()
        client.close()
        with pytest.raises(FdError):
            service.send(b"x")

    def test_close_drops_the_peer_edge(self):
        # The pair is a two-object cycle until one end closes.
        service, client = UnixSocket.pair()
        client.close()
        assert client.peer is None
        with pytest.raises(FdError):
            client.send(b"x")
        with pytest.raises(FdError):
            service.send(b"x")

    def test_describe_carries_channel_identity(self):
        service, client = UnixSocket.pair("sensor")
        assert service.describe()["channel_id"] == client.describe()["channel_id"]
        assert service.describe()["role"] == "service"
        assert client.describe()["role"] == "client"

    def test_close_via_fd_table(self):
        table = FDTable()
        service, client = UnixSocket.pair()
        fd = table.install(client)
        table.close(fd)
        assert client.closed


class TestDescriptions:
    def test_open_file_describe(self):
        f = OpenFile("/data/x", "rw", offset=12)
        assert f.describe() == {"kind": "file", "path": "/data/x",
                                "flags": "rw", "offset": 12}

    def test_device_file_describe_copies_state(self):
        d = DeviceFile("binder", {"a": 1})
        desc = d.describe()
        desc["state"]["a"] = 2
        assert d.state["a"] == 1

    def test_pipe_pair_shares_buffer(self):
        read_end, write_end = Pipe.pair()
        write_end.buffer.append(b"x")
        assert read_end.buffer == [b"x"]
        assert read_end.pipe_id == write_end.pipe_id
