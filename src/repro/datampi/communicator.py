"""The bipartite O/A communicator — DataMPI's communication model.

Section 2.3: "A job of DataMPI contains several tasks which are divided
into O/A communicators and form a bipartite graph in the underlying
communication.  Data movement from O communicator to A communicator is
scheduled implicitly by the library."

The world's first ``num_o`` ranks form the O communicator, the remaining
``num_a`` ranks the A communicator.  O ranks push encoded key-value
chunks (``TAG_DATA``) to A ranks and finish with one ``TAG_EOF`` to each,
which carries that A rank's last chunk (or ``None`` when there is none
left); an A rank knows its input is complete when it has an EOF from
every O rank.  This captures the four communication characteristics the
paper lists: *dichotomic* (two fixed sides), *dynamic* (chunks flow as
they fill), *data-centric* (data lands at the consumer and is read
locally), and *diversified* (hash or range routing via the partitioner).
"""

from __future__ import annotations

from typing import Sequence

from repro.common.errors import CommunicatorError
from repro.mpi.comm import ANY_TAG, Comm, Message

TAG_DATA = 1
TAG_EOF = 2


class BipartiteComm:
    """One rank's view of the bipartite O/A world."""

    def __init__(self, comm: Comm, num_o: int, num_a: int):
        if num_o < 1 or num_a < 1:
            raise CommunicatorError(
                f"both sides need >= 1 task (num_o={num_o}, num_a={num_a})"
            )
        if comm.size != num_o + num_a:
            raise CommunicatorError(
                f"world size {comm.size} != num_o + num_a = {num_o + num_a}"
            )
        self.comm = comm
        self.num_o = num_o
        self.num_a = num_a

    @property
    def is_o(self) -> bool:
        return self.comm.rank < self.num_o

    @property
    def o_index(self) -> int:
        if not self.is_o:
            raise CommunicatorError(f"rank {self.comm.rank} is not in the O communicator")
        return self.comm.rank

    @property
    def a_index(self) -> int:
        if self.is_o:
            raise CommunicatorError(f"rank {self.comm.rank} is not in the A communicator")
        return self.comm.rank - self.num_o

    def world_rank_of_a(self, a_index: int) -> int:
        if not 0 <= a_index < self.num_a:
            raise CommunicatorError(f"A index {a_index} out of range [0, {self.num_a})")
        return self.num_o + a_index

    # -- O side ---------------------------------------------------------------

    def send_chunk(self, a_index: int, payload: bytes) -> None:
        """Push one encoded chunk to an A task (implicit data movement)."""
        if not self.is_o:
            raise CommunicatorError("only O tasks send data chunks")
        self.comm.send(self.world_rank_of_a(a_index), payload, TAG_DATA)

    def send_eof(self, last: Sequence[bytes | None]) -> None:
        """Tell every A task this O task is done; ``last[a_index]`` is the
        chunk that rides A task ``a_index``'s EOF, or ``None``."""
        if not self.is_o:
            raise CommunicatorError("only O tasks send EOF")
        for a_index, payload in enumerate(last):
            self.comm.send(self.world_rank_of_a(a_index), payload, TAG_EOF)

    # -- A side ---------------------------------------------------------------

    def recv_any(self) -> Message:
        """Receive the next DATA or EOF message (A side only).

        ``buffer=True``: chunk payloads — an EOF's included — go straight
        into the :class:`~repro.storage.chunkstore.ChunkStore`, which
        decodes ``memoryview`` chunks in place, so a backend that hands
        views over (thread, inline) skips a copy.
        """
        if self.is_o:
            raise CommunicatorError("only A tasks receive data")
        message = self.comm.recv(tag=ANY_TAG, buffer=True)
        if message.tag not in (TAG_DATA, TAG_EOF):
            raise CommunicatorError(f"unexpected tag {message.tag} on A rank")
        return message
