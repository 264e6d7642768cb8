"""SIM003 fixture: schedule entries written in place, fed by set iteration.

``Box.put`` appends its entry to the engine's lane itself, the way
``Mailbox.put`` does, and ``Box.later`` pushes one onto the heap, so a
loop over a set that calls either feeds the schedule in hash order just
as one that calls ``call_soon`` does.
"""

import heapq


class Box:
    def __init__(self, sim):
        self.sim = sim

    def put(self, item):
        sim = self.sim
        lane = sim._lanes[1]
        lane.append((sim._seq, None, item))
        sim._seq += 1

    def later(self, delay, item):
        sim = self.sim
        heapq.heappush(sim._heap, (sim.now + delay, 1, sim._seq, None, item))
        sim._seq += 1


def deliver(boxes, item):
    for box in set(boxes):  # bad: `put` writes the lane in hash order
        box.put(item)


def deliver_later(boxes, item):
    for box in set(boxes):  # bad: `later` pushes onto the heap in hash order
        box.later(1.0, item)


def deliver_via_call_soon(sim, boxes, item):
    for box in set(boxes):  # bad: the same hazard through a primitive
        sim.call_soon(box.put, item)


def backlog(boxes):
    for box in set(boxes):  # clean: reads the lane, schedules nothing
        print(len(box.sim._lanes[1]))
