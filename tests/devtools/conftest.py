"""Keep the known-violation fixture trees out of pytest collection.

``fixtures/`` holds deliberately broken modules and a miniature repo
tree; they are inputs to the analyzer's tests, not tests themselves.
"""

collect_ignore = ["fixtures"]
