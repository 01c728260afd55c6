#!/usr/bin/env python3
"""The two payoff games, erasure, and reachable-state sets.

Game 1 pays on 'up', game 2 pays on 'down'.  After the result record is
erased (into one of finitely many indistinguishable microstates), the
set of global states reachable from game 1 equals the set reachable
from game 2 exactly when the reward branches carry equal weight.  That
set-equality is the executable content of equal-weight indifference.
"""
import math
from fractions import Fraction

from born_kernel import GameSpec, play_game, reachable_set, sets_equal, three_outcome_game
from born_kernel.erasure import THREE_OUTCOME_RESULTS

game1 = GameSpec(frozenset({"up"}))
game2 = GameSpec(frozenset({"down"}))

half = [("up", Fraction(1, 2)), ("down", Fraction(1, 2))]
print("pre-erasure states at p = 1/2:")
for name, game in (("game 1", game1), ("game 2", game2)):
    state = play_game(half, game)
    print(f"  {name}: " + " + ".join(
        f"{math.sqrt(w):.4f}|{label.label()}>" for label, w, _ in state.branches
    ))

print()
print("reachable sets after erasure (2 microstates per branch):")
s1 = reachable_set(half, game1, index_range=2)
s2 = reachable_set(half, game2, index_range=2)
print(f"  game 1 reaches {len(s1)} states, game 2 reaches {len(s2)} states")
print(f"  equal: {sets_equal(s1, s2)}")

print()
print("sweep p = k/16 (equality holds only at the midpoint):")
for k in range(1, 16):
    p = Fraction(k, 16)
    prep = [("up", p), ("down", 1 - p)]
    eq = sets_equal(
        reachable_set(prep, game1, 2), reachable_set(prep, game2, 2)
    )
    print(f"  p = {str(p):>5}: {'equal' if eq else 'different'}")

# The asymmetric-weight barrier disappears in the three-branch
# construction: both games produce one reward branch of weight w and
# no-reward branches of weights w and 1-2w, for every admissible w.
print()
print("three-branch construction, reward on", THREE_OUTCOME_RESULTS[0],
      "vs", THREE_OUTCOME_RESULTS[1], ":")
g1 = GameSpec(frozenset({THREE_OUTCOME_RESULTS[0]}))
g2 = GameSpec(frozenset({THREE_OUTCOME_RESULTS[1]}))
for k in (1, 4, 8):
    w = Fraction(k, 16)
    eq = sets_equal(three_outcome_game(w, g1, 2), three_outcome_game(w, g2, 2))
    print(f"  w = {str(w):>4}: {'equal' if eq else 'different'}")
