"""Link-state databases built by hand for the routing and transport tests."""

from qkdnet.routing import LinkStateAd, LinkStateDB


def saturated_db(topo, level=131072):
    """A database in which both ends of every link advertise Up at ``level``."""
    db = LinkStateDB(topo)
    for link in topo.links:
        for origin in (link.a, link.b):
            db.update(LinkStateAd(link.id, origin, 1, True, level))
    return db
