"""The raising-flip search of B(n,d) without carried state, kept as the test
oracle of bruhat._masks: every mask popped has all its packets read again
by masks._steps."""

from zonocube.masks import _steps


def masks_oracle(n: int, d: int) -> dict[int, int]:
    """The consistent inversion masks of Z(n,d), each mapped to its raising
    steps, by a depth-first search from the empty mask with no state cap."""
    found = {0: 0}
    todo = [0]
    while todo:
        inv = todo.pop()
        steps = found[inv] = _steps(n, d, inv) & ~inv
        while steps:
            b = steps & -steps
            steps ^= b
            up = inv | b
            if up not in found:
                found[up] = 0
                todo.append(up)
    return found
