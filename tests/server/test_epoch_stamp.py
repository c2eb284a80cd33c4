"""Responses carry the epoch their answer was served under.

An update may land after the answer is computed and before the app
encodes it; the response must still name the epoch of the state the
answer was computed on, not the one in force at encoding time.
"""

from __future__ import annotations

import asyncio

from repro.server import KORApp, asgi_request
from repro.service import build_service
from repro.world import MutableWorld

from tests.server.test_http_differential import query_payload
from tests.service.test_differential import random_instance

UPDATE = [{"op": "update_keywords", "node": 0, "keywords": ["pub", "mall"]}]


def _app_updating_after_each_answer():
    """A live-world app whose front end lands one update right after the
    first answer returns, before the app encodes it."""
    engine, queries = random_instance(0)
    world = MutableWorld(engine.graph, num_cells=2)
    front = build_service(world, tier="async")
    answered = front.submit
    pending, landed = [UPDATE], []  # one update, after the first answer

    async def submit_then_update(*args, **kwargs):
        result = await answered(*args, **kwargs)
        if pending:
            landed.append(await front.apply_update(pending.pop()))
        return result

    front.submit = submit_then_update
    return KORApp(front), world, queries, landed


def test_query_response_keeps_the_epoch_it_was_served_under():
    app, world, queries, landed = _app_updating_after_each_answer()

    async def drive():
        response = await asgi_request(app, "POST", "/query", query_payload(queries[0], "exact"))
        await app.frontend.close()
        return response

    response = asyncio.run(drive())
    assert response.status == 200
    assert landed == [1] and world.epoch == 1
    assert response.json()["epoch"] == 0


def test_batch_response_keeps_the_epoch_it_was_served_under():
    app, world, queries, landed = _app_updating_after_each_answer()

    async def drive():
        response = await asgi_request(
            app,
            "POST",
            "/batch",
            {"queries": [query_payload(query, "exact") for query in queries[:3]]},
        )
        await app.frontend.close()
        return response

    response = asyncio.run(drive())
    assert response.status == 200
    assert landed == [1] and world.epoch == 1
    assert [item["epoch"] for item in response.json()["results"]] == [0, 0, 0]
