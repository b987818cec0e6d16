"""Development tools that check the ``repro`` package; not part of it."""
