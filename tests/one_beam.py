"""One-beam pings for the tests: ping forms every beam of sonar.beams in one
call, and a test of one beam takes its row."""

from dataclasses import replace

from flsim import ping


def ping_beam(scene, sonar, pose, beam, *, seed):
    """The ping of one receive beam: row 0 of a ping whose sonar has that
    beam only, from the same seed."""
    return ping(scene, replace(sonar, beams=(beam,)), pose, seed=seed).row(0)
