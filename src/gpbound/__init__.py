"""gpbound: certified explicit bounds for the least primitive root mod p.

Layers, bottom up: exact integer number theory (ntcore), Dirichlet
characters and moment sums (characters), the Burgess interval system
(intervals), the e-free sieve (sieve), and the certification engine
(certify) whose verdicts ride on rigorous enclosures (enclosure).  Import
each layer from its module.  Only the array code loads numpy: characters,
intervals, verify, the worst-slack passes of sieve and the discrete-log
table of ntcore.PrimeContext.
"""

__version__ = "0.1.0"
