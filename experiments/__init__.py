"""Inputs and studies built on spsgmm that the package itself does not ship.

`conditions` holds the seeded synthetic speech/music recipes and the WAV
writer that tests and CI use to make their corpora.  Code here imports
spsgmm's public modules; the package never imports this one, so nothing
here can change what the package computes.  Run from the checkout root
(or with it on PYTHONPATH) to import it."""
