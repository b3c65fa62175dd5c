"""Helpers shared across test modules."""


class ListSink:
    """Keeps every event, in emission order."""

    enabled = True

    def __init__(self) -> None:
        self.events = []

    def emit(self, event) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass
