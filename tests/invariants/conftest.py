"""Keep the known-violation fixtures out of pytest collection.

``fixtures/`` holds deliberately broken modules and a miniature repo
tree; they are inputs to the invariant tests, not tests themselves.
"""

collect_ignore = ["fixtures"]
