"""The one policy for the tables the kit keeps between calls."""

import threading
from functools import wraps

_lock = threading.Lock()   # writers only, over every store; a lookup is one dict read


def held(budget: int, size=len):
    """Memoize a pure builder of hashable positional arguments, holding its
    tables oldest first while their sizes add up to at most the budget: a
    new table drops the oldest ones, and one over the budget is returned
    unheld.  The memo reads its budget attribute at each insertion, keeps
    the tables in its store attribute and their sizes' sum in total, and
    shows the size function as size."""
    def decorate(build):
        @wraps(build)
        def lookup(*args):
            table = lookup.store.get(args)
            if table is None:
                table = build(*args)
                cost = size(table)
                if cost <= lookup.budget:
                    with _lock:
                        if args not in lookup.store:
                            lookup.store[args] = table
                            lookup.total += cost
                            while lookup.total > lookup.budget:
                                lookup.total -= size(lookup.store.pop(next(iter(lookup.store))))
            return table

        lookup.budget, lookup.store, lookup.total, lookup.size = budget, {}, 0, size
        return lookup

    return decorate
